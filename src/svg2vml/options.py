"""Conversion options shared by the mapper, the emitters and the CLI."""

from __future__ import annotations

from collections import namedtuple

MODE_VML = "vml"
MODE_XHTML = "xhtml"


_Options = namedtuple(
    "_Options", "mode precision strict pretty title", defaults=(MODE_VML, 6, False, False, None)
)


class ConvertOptions(_Options):
    """The options of one conversion; immutable, and checked when made.

    mode: str, MODE_VML or MODE_XHTML
    precision: int, output decimals, 0..12
    strict: bool, write nothing when anything is reported
    pretty: bool, indent the output
    title: str | None, the title of the emitted page
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        options = super().__new__(cls, *args, **kwargs)
        if options.mode not in (MODE_VML, MODE_XHTML):
            raise ValueError(f"unknown mode {options.mode!r}")
        if not 0 <= options.precision <= 12:
            raise ValueError("precision must be in [0, 12]")
        return options

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make, which would skip the checks
        return cls(*iterable)
