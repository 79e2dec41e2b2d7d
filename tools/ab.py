"""A/B timing: this checkout's converter against another revision's, on perfbench workloads or from a cold start.

    python tools/ab.py --against REV --workload W [--workload W2 ...] [--seed S] [--rounds N]
    python tools/ab.py --against REV --cold-start [--rounds N]

REV is exported with `git archive` into a temporary directory under $TMPDIR,
as tools/differential.py does, and removed afterwards; nothing is fetched.
Both `svg2vml` packages are imported into this one process under their own
names, so both sides share the interpreter, the heap and the host's load at
each moment.  Separate benchmark runs on a shared host can differ by more
than a small change does; one process alternating the two sides cancels
most of that drift.

Each `--workload` is timed in turn, so one command covers every workload a
change runs through.  Its documents are the workload's perfbench corpus at
the seed, built by perfbench/corpus.py of this checkout, which is only
imported, and converted with the workload's own options.  First every
document is converted once by each side: the output and the diagnostic
strings must be identical, or the tool names the differing documents and
skips the timing.  Then each round converts every document with both sides,
the side that goes first alternating from document to document, and takes
the ratio of this checkout's total time to REV's.  One line per workload
gives the median ratio over the rounds, its quartiles and how many rounds
this checkout won; below 1 means this checkout is faster.

`--cold-start` times what a fresh interpreter pays before its first
conversion instead, which no in-process timing can see.  Each round is a
pair of fresh `python -I` children, one per side, the side that goes first
alternating from pair to pair; each runs perfbench's setup child on that
side's src (import the package, convert perfbench's TINY_SVG) and reports
the seconds it took.  One untimed child per side first writes its bytecode
and checks that both sides convert the document alike.  The line gives the
median ratio of this checkout's time to REV's over the pairs, its
quartiles, each side's median time and how many pairs this checkout won.

The exit status is 1 when any workload's documents differ, or the tiny
document's output does.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from differential import ROOT, export  # noqa: E402


def load_package(name: str, src: Path):
    """The svg2vml package under src, imported as `name`; its relative imports resolve under that name."""
    package = src / "svg2vml"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def converter(package, corpus):
    """convert_text with the corpus's options, returning the output and the diagnostic strings."""
    options = package.ConvertOptions(mode=corpus.mode, pretty=corpus.pretty)

    def convert(text: str):
        output, diagnostics = package.convert_text(text, options)
        return output, [str(diagnostic) for diagnostic in diagnostics]

    return convert


def time_ratios(mine, theirs, texts: list[str], rounds: int) -> list[float]:
    """Per round, this checkout's total conversion time over REV's."""
    clock = time.perf_counter
    ratios = []
    for _ in range(rounds):
        spent = {mine: 0.0, theirs: 0.0}
        for index, text in enumerate(texts):
            for convert in ((mine, theirs) if index % 2 else (theirs, mine)):
                start = clock()
                convert(text)
                spent[convert] += clock() - start
        ratios.append(spent[mine] / spent[theirs])
    return ratios


def compare(mine_package, theirs_package, corpus, rounds: int) -> tuple[bool, str]:
    """Whether one workload's documents are identical, and its line: the differing ones or the time ratio."""
    texts = [doc.text for doc in corpus.documents]
    mine, theirs = converter(mine_package, corpus), converter(theirs_package, corpus)
    differing = [doc.doc_id for doc, text in zip(corpus.documents, texts) if mine(text) != theirs(text)]
    if differing:
        return False, (f"{len(differing)} of {len(texts)} documents differ in output or diagnostics, "
                       f"e.g. {', '.join(differing[:5])}")
    ratios = time_ratios(mine, theirs, texts, rounds)
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    won = sum(ratio < 1 for ratio in ratios)
    return True, (f"{len(texts)} documents identical; time ratio over {rounds} rounds: "
                  f"median {median:.3f}, quartiles {q1:.3f}-{q3:.3f}; working tree faster in {won} of {rounds}")


def setup_child(src: Path) -> tuple[float, str]:
    """perfbench's setup child on the package under src: its seconds and the sha256 of its output."""
    from run import SETUP_CHILD, TINY_SVG

    # An empty import kernel: both sides of a pair run at nearly the same moment, so no host correction.
    child = subprocess.run([sys.executable, "-I", "-c", SETUP_CHILD, str(src), "", TINY_SVG],
                           capture_output=True, text=True, timeout=120)
    fields = child.stdout.split()
    if child.returncode != 0 or len(fields) != 4 or Path(fields[3]).resolve().parent.parent != src.resolve():
        raise RuntimeError(f"setup child on {src} failed: {child.stdout!r} {child.stderr[-400:]!r}")
    return float(fields[0]), fields[2]


def cold_start(mine: Path, theirs: Path, rounds: int) -> tuple[bool, str]:
    """Whether both sides convert the tiny document alike, and the line: the difference or the time ratio."""
    outputs = {setup_child(src)[1] for src in (mine, theirs)}
    if len(outputs) != 1 or "failed" in outputs:
        return False, f"the tiny document converts differently or with diagnostics: {sorted(outputs)}"
    ratios, seconds = [], {mine: [], theirs: []}
    for index in range(rounds):
        for src in ((mine, theirs) if index % 2 else (theirs, mine)):
            seconds[src].append(setup_child(src)[0])
        ratios.append(seconds[mine][-1] / seconds[theirs][-1])
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    won = sum(ratio < 1 for ratio in ratios)
    return True, (f"time ratio over {rounds} pairs of fresh interpreters: median {median:.3f}, "
                  f"quartiles {q1:.3f}-{q3:.3f}; medians {statistics.median(seconds[mine]) * 1000:.2f} / "
                  f"{statistics.median(seconds[theirs]) * 1000:.2f} ms; working tree faster in {won} of {rounds}")


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from corpus import WORKLOADS, build_corpus

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", required=True, help="the revision to compare with")
    parser.add_argument("--workload", choices=WORKLOADS, action="append", default=[],
                        help="a workload to time; give it once per workload")
    parser.add_argument("--cold-start", action="store_true",
                        help="time fresh interpreters that import the package and convert one tiny document")
    parser.add_argument("--seed", type=int, default=3, help="corpus seed (default 3)")
    parser.add_argument("--rounds", type=int, default=20,
                        help="timed rounds over the corpus, or pairs of fresh interpreters (default 20)")
    args = parser.parse_args(argv)
    if not args.workload and not args.cold_start:
        parser.error("give --workload or --cold-start")
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for quartiles")

    status = 0
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        export(args.against, Path(scratch))
        if args.cold_start:
            identical, line = cold_start(ROOT / "src", Path(scratch, "src"), args.rounds)
            status |= not identical
            print(f"cold start, working tree / {args.against}: {line}", flush=True)
        if args.workload:
            theirs = load_package("svg2vml_against", Path(scratch, "src"))
            mine = load_package("svg2vml_mine", ROOT / "src")
        for workload in args.workload:
            identical, line = compare(mine, theirs, build_corpus(workload, args.seed), args.rounds)
            status |= not identical
            print(f"{workload} seed {args.seed}, working tree / {args.against}: {line}", flush=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
