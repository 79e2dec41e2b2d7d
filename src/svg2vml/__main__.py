"""`python -m svg2vml` runs the command-line front end."""

from .cli import main

main()
