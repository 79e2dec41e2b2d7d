"""Host-speed calibration kernels.

The host's speed drifts by up to 2x within seconds, so every timing is
scaled by the ratio of reference to observed time of a fixed kernel run next
to it, which reports it at the reference host speed while keeping its unit.
Neither kernel imports anything from svg2vml, so a change to the converter
cannot move them.

* calibrate(): stdlib work of the kind the converter does (regex
  tokenizing, float formatting, JSON and string building).  It runs
  between every two timed conversions; correction() damps its ratio.
* IMPORT_KERNEL: cold imports of stdlib modules outside svg2vml's import
  closure, the same kind of work as a cold start (reading and unmarshalling
  bytecode, running module bodies).  The set-up child runs it after its
  timed region.  It is used there because the compute kernel slows about
  1.75x in the host's slow state while a cold start slows about 1.5x.
"""

from __future__ import annotations

import json
import re
import time

# Kernel times in ms in the host's fast state, the reference: medians over runs
# of the benchmark on a shared 2-vCPU x86-64 virtual machine with Python 3.11.
CAL_REF_MS = 0.7
IMPORT_REF_MS = 20.0

# Conversions slow less than the compute kernel when the host turns slow:
# across both slow states seen, ln(conversion slowdown) / ln(kernel slowdown)
# was 0.78 to 0.97 over the four workloads, about 0.85 in the middle.  With
# the full factor the corrected figures of a slow spell read up to 11% fast.
ELASTICITY = 0.85

IMPORT_KERNEL = "import calendar, configparser, csv, difflib, email.parser, json, statistics, textwrap, tomllib"

_TOKEN_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)|[A-Za-z]")
_PATH_TEXT = " ".join(f"L{i * 0.37:.2f},{-i * 1.1:.3f}" for i in range(240))
_ROWS_JSON = json.dumps([{"tag": "rect", "attrs": {"x": str(i), "fill": "#%06x" % (i * 7919)}} for i in range(120)])


def kernel() -> int:
    out = []
    for match in _TOKEN_RE.finditer(_PATH_TEXT):
        token = match.group()
        if token.isalpha():
            out.append(token.lower())
        else:
            out.append(f"{float(token) * 1.5:.6f}".rstrip("0").rstrip("."))
    styles = {}
    for row in json.loads(_ROWS_JSON):
        styles[row["attrs"]["x"]] = ";".join(f"{name}:{value}" for name, value in row["attrs"].items())
    return len(json.dumps(styles)) + len(" ".join(out))


def calibrate() -> float:
    """One kernel run, in ms.  A single run, not the best of several: the
    host's speed also changes within milliseconds, and the best of several
    runs misses the slow moments that the conversion next to it saw."""
    start = time.perf_counter()
    kernel()
    return (time.perf_counter() - start) * 1000.0


def correction(cal_ms: float) -> float:
    """Factor that scales a timing taken next to a calibrate() reading to the
    reference host speed."""
    return (CAL_REF_MS / cal_ms) ** ELASTICITY
