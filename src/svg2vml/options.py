"""Conversion options shared by the mapper, the emitters and the CLI."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

MODE_VML = "vml"
MODE_XHTML = "xhtml"


@dataclass(frozen=True)
class ConvertOptions:
    mode: str = MODE_VML
    precision: int = 6  # output decimals, 0..12
    strict: bool = False
    pretty: bool = False
    title: Optional[str] = None

    def __post_init__(self):
        if self.mode not in (MODE_VML, MODE_XHTML):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0 <= self.precision <= 12:
            raise ValueError("precision must be in [0, 12]")
