"""Conversion options shared by the mapper, the emitters and the CLI."""

from __future__ import annotations

from typing import NamedTuple, Optional

MODE_VML = "vml"
MODE_XHTML = "xhtml"


class _Options(NamedTuple):
    mode: str = MODE_VML
    precision: int = 6  # output decimals, 0..12
    strict: bool = False
    pretty: bool = False
    title: Optional[str] = None


class ConvertOptions(_Options):
    """The options of one conversion; immutable, and checked when made."""

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
