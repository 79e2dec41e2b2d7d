"""Benchmark for svg2vml's parse -> map -> emit pipeline on seeded corpora.

    python3 perfbench/run.py --workload flat_shapes --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the converter is imported from its src/.
Load is a closed loop: one process converts one document at a time, no
threads.  Every conversion is checked: against the generator's expected tag
counts once, then for byte equality on every repeat.  Timings are scaled to
the reference host speed by the calibration kernel that runs between every
two documents (calibrate.py); the uncorrected figures are printed beside them.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from calibrate import CAL_REF_MS, IMPORT_KERNEL, IMPORT_REF_MS, calibrate, correction
from corpus import WORKLOADS, Corpus, build_corpus
from oracle import check_output
from spans import Tracer, installed, self_ms_by_name

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
OUT_DIR = BENCH_DIR / "out"

# Each run takes at least this many (document, pass) samples, so the p95
# has at least ten samples beyond it.
MIN_SAMPLES = 200
SETUP_CHILDREN = 25
CHILD_TIMEOUT_S = 120

TINY_SVG = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="100" height="100" viewBox="0 0 100 100">'
    '<rect x="10" y="10" width="30" height="20" fill="red" stroke="navy"/></svg>'
)

# Runs in a fresh interpreter: the cold-start cost the CLI pays per file.
# The child runs the import kernel itself, after its timed region, because
# the host speed the parent sees while it waits is not the one the child ran at.
SETUP_CHILD = """
import time
start = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import svg2vml
output, diagnostics = svg2vml.convert_text(sys.argv[3])
elapsed = time.perf_counter() - start
start = time.perf_counter()
exec(sys.argv[2])
imports = time.perf_counter() - start
import hashlib
ok = output is not None and not len(diagnostics)
print(elapsed, imports, hashlib.sha256(output.encode()).hexdigest() if ok else "failed", svg2vml.__file__)
"""


def import_converter():
    sys.path.insert(0, str(SRC))
    try:
        import svg2vml
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import svg2vml from {SRC}: {error}")
    if Path(svg2vml.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: svg2vml came from {svg2vml.__file__}, not from {SRC}")
    return svg2vml


def sha256_of(outputs) -> str:
    digest = hashlib.sha256()
    for output in outputs:
        digest.update((output or "").encode("utf-8"))
    return digest.hexdigest()


@dataclass
class Pass:
    """One timed trip through the corpus."""

    doc_seconds: list[float]  # raw time per document, in corpus order
    doc_factors: list[float]  # correction() of the two calibrations around each document
    cal_ms: list[float]  # every calibration taken in the pass

    @property
    def corrected(self) -> list[float]:
        return [seconds * factor for seconds, factor in zip(self.doc_seconds, self.doc_factors)]


class Bench:
    def __init__(self, svg2vml, corpus: Corpus):
        self.svg2vml = svg2vml
        self.corpus = corpus
        self.options = svg2vml.ConvertOptions(mode=corpus.mode, pretty=corpus.pretty)
        self.input_mb = corpus.input_bytes / 1e6
        self.attempted = 0
        self.failed = 0
        self.references: list[Optional[str]] = []

    def convert(self, text: str) -> Optional[str]:
        """convert_text's output, or None when it raised, returned None or reported anything."""
        try:
            output, diagnostics = self.svg2vml.convert_text(text, self.options)
        except Exception as error:  # a crash is one failed document; the run goes on
            print(f"perfbench: convert_text raised {error!r}", file=sys.stderr)
            return None
        return output if not len(diagnostics) else None

    def check_references(self) -> None:
        """First conversion of every document, checked against the oracle."""
        for doc in self.corpus.documents:
            output = self.convert(doc.text)
            reason = "no output or diagnostics" if output is None else check_output(output, doc.expected)
            self.attempted += 1
            if reason is not None:
                print(f"perfbench: {doc.doc_id} fails: {reason}", file=sys.stderr)
                self.failed += 1
                output = None
            self.references.append(output)

    def tally(self, outputs: list[Optional[str]]) -> None:
        for output, reference in zip(outputs, self.references):
            self.attempted += 1
            if output is None or output != reference:
                self.failed += 1

    def timed_pass(self) -> Pass:
        seconds, factors, outputs, cals = [], [], [], [calibrate()]
        for doc in self.corpus.documents:
            start = time.perf_counter()
            outputs.append(self.convert(doc.text))
            seconds.append(time.perf_counter() - start)
            cals.append(calibrate())
            factors.append(correction((cals[-2] + cals[-1]) / 2))
        self.tally(outputs)
        return Pass(seconds, factors, cals)

    def timed_passes(self, seconds: float) -> list[Pass]:
        passes = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(passes) * len(self.corpus.documents) < MIN_SAMPLES:
            passes.append(self.timed_pass())
        return passes

    def pipeline(self, text: str, stage):
        """convert_text's steps, each inside stage(name); returns
        (output, diagnostics, parsed document, mapped tree)."""
        svg2vml, options = self.svg2vml, self.options
        diagnostics = svg2vml.Diagnostics(strict=options.strict)
        with stage("parse"):
            doc = svg2vml.parse_svg(text, diagnostics)
        if doc is None:
            return None, diagnostics, None, None
        if options.mode == "xhtml":
            with stage("emit"):
                return svg2vml.emit_xhtml_passthrough(doc, options), diagnostics, doc, None
        with stage("map"):
            tree, _ = svg2vml.map_document(doc, options, diagnostics)
        with stage("emit"):
            output = svg2vml.emit_vml_html(tree, options)
        return output, diagnostics, doc, tree


# --- end-to-end metrics ------------------------------------------------------


def percentile(values: list[float], share: int) -> float:
    return statistics.quantiles(values, n=100)[share - 1]


def measure_setup(expected_sha: str) -> tuple[list[float], list[float], bool]:
    """Raw and host-corrected cold-start seconds over fresh interpreters, run one at a time."""
    raw, corrected, ok = [], [], True
    for index in range(SETUP_CHILDREN + 1):
        result = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), IMPORT_KERNEL, TINY_SVG],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=CHECKOUT,
        )
        fields = result.stdout.split()
        if (
            result.returncode != 0
            or len(fields) != 4
            or fields[2] != expected_sha
            or Path(fields[3]).resolve().parent.parent != SRC.resolve()
        ):
            print(f"perfbench: setup child failed: {result.stdout!r} {result.stderr[-400:]!r}", file=sys.stderr)
            ok = False
            continue
        if index == 0:
            continue  # the first child may compile bytecode; later ones measure a warm install
        raw.append(float(fields[0]))
        corrected.append(float(fields[0]) * IMPORT_REF_MS / (float(fields[1]) * 1000.0))
    return raw, corrected, ok and bool(raw)


def measure_peak_rss(workload: str, seed: int, expected_sha: str) -> tuple[float, bool]:
    result = subprocess.run(
        [sys.executable, "-I", str(BENCH_DIR / "rss_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=CHECKOUT,
    )
    try:
        report = json.loads(result.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(f"perfbench: rss probe failed: {result.stderr[-400:]!r}", file=sys.stderr)
        return 0.0, False
    ok = result.returncode == 0 and report["failed"] == 0 and report["sha256"] == expected_sha
    if not ok:
        print(f"perfbench: rss probe disagrees with this run: {report}", file=sys.stderr)
    return report["maxrss_kb"] * 1024 / 1e6, ok


def end_to_end(bench: Bench, args) -> tuple[dict, bool]:
    passes = bench.timed_passes(args.seconds)
    samples = [s * 1000.0 for p in passes for s in p.corrected]
    raw_samples = [s * 1000.0 for p in passes for s in p.doc_seconds]
    mbps = [bench.input_mb / sum(p.corrected) for p in passes]
    raw_mbps = [bench.input_mb / sum(p.doc_seconds) for p in passes]

    tiny_output, _ = bench.svg2vml.convert_text(TINY_SVG)
    tiny_sha = hashlib.sha256(tiny_output.encode()).hexdigest()
    setup_raw, setup, setup_ok = measure_setup(tiny_sha)
    output_sha = sha256_of(bench.references)
    rss_mb, rss_ok = measure_peak_rss(bench.corpus.workload, bench.corpus.seed, output_sha)

    rows = [
        ("convert_mb_per_s", statistics.median(mbps), statistics.median(raw_mbps), "MB/s"),
        ("doc_ms_p50", statistics.median(samples), statistics.median(raw_samples), "ms"),
        ("doc_ms_p95", percentile(samples, 95), percentile(raw_samples, 95), "ms"),
        ("setup_s", statistics.median(setup) if setup else 0.0, statistics.median(setup_raw) if setup_raw else 0.0, "s"),
        ("peak_rss_mb", rss_mb, rss_mb, "MB"),
    ]
    print(f"output sha256 {output_sha} (information, not a gate)")
    print(f"{len(samples)} document samples over {len(passes)} passes; {len(setup)} setup children; "
          f"calibration median {statistics.median(c for p in passes for c in p.cal_ms):.4f} ms (reference {CAL_REF_MS} ms)")
    print(f"{'metric':<18}{'corrected':>14}{'raw':>14}  unit")
    for name, value, raw, unit in rows:
        print(f"{name:<18}{value:>14.6g}{raw:>14.6g}  {unit}")
    print(f"{'failed_share':<18}{bench.failed / bench.attempted:>14.6g}{'':>14}  share ({bench.failed}/{bench.attempted})")
    metrics = {name: {"value": value, "unit": unit} for name, value, _, unit in rows}
    return metrics, setup_ok and rss_ok


# --- per-layer metrics -------------------------------------------------------


class AllocPeaks:
    """tracemalloc peak per stage, relative to the memory held when the stage began."""

    def __init__(self) -> None:
        self.peaks = {"parse": 0, "map": 0, "emit": 0}

    @contextmanager
    def stage(self, name: str):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        yield
        self.peaks[name] = max(self.peaks[name], tracemalloc.get_traced_memory()[1] - base)


def count_nodes(root) -> int:
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def traced_pass(bench: Bench) -> tuple[Tracer, dict[str, float], float, dict]:
    """One traced trip through the corpus: the tracer, the correction factor
    per document, the corrected time in format_number, and the counts."""
    tracer = Tracer()
    counts = {"parse.nodes": 0, "map.nodes_out": 0, "emit.output_bytes": 0, "diagnostics.count": 0}
    outputs, factors, format_ms = [], {}, 0.0
    before = calibrate()
    with installed(tracer):
        for doc in bench.corpus.documents:
            tracer.doc = doc.doc_id
            format_before = tracer.call_seconds["numeric.format"]
            try:
                with tracer.span("convert"):
                    output, diagnostics, parsed, tree = bench.pipeline(doc.text, tracer.span)
            except Exception as error:  # one failed document; the run goes on
                print(f"perfbench: traced conversion raised {error!r}", file=sys.stderr)
                output, diagnostics, parsed, tree = None, (), None, None
            after = calibrate()
            factors[doc.doc_id] = correction((before + after) / 2)
            before = after
            format_ms += (tracer.call_seconds["numeric.format"] - format_before) * 1000.0 * factors[doc.doc_id]
            outputs.append(output if not len(diagnostics) else None)
            counts["diagnostics.count"] += len(diagnostics)
            counts["parse.nodes"] += count_nodes(parsed.root) if parsed else 0
            counts["map.nodes_out"] += count_nodes(tree) if tree else 0
            counts["emit.output_bytes"] += len(output.encode("utf-8")) if output else 0
    bench.tally(outputs)
    return tracer, factors, format_ms, counts


def per_layer(bench: Bench, args) -> tuple[dict, bool]:
    untraced = bench.timed_passes(args.seconds / 2)
    untraced_mbps = statistics.median(bench.input_mb / sum(p.corrected) for p in untraced)

    traced: list[dict] = []
    deadline = time.perf_counter() + args.seconds / 2
    while not traced or time.perf_counter() < deadline:
        tracer, factors, format_ms, counts = traced_pass(bench)
        self_ms = self_ms_by_name(tracer.spans, factors)
        inclusive = {name: 0.0 for name in ("convert", "parse", "map", "emit")}
        for span in tracer.spans:
            if span.name in inclusive:
                inclusive[span.name] += (span.end - span.start) * factors[span.doc]
        traced.append({
            "mbps": bench.input_mb / inclusive.pop("convert"),
            "stages": inclusive,
            "parse.self_ms": self_ms.get("parse", 0.0),
            "map.self_ms": self_ms.get("map", 0.0),
            "emit.self_ms": self_ms.get("emit", 0.0),
            "path_data.parse_ms": self_ms.get("path_data.parse", 0.0),
            "path_data.normalize_ms": self_ms.get("path_data.normalize", 0.0),
            "path_data.emit_ms": self_ms.get("path_data.emit", 0.0),
            "transform.parse_ms": self_ms.get("transform.parse", 0.0),
            "transform.compose_ms": self_ms.get("transform.compose", 0.0),
            "style.fill_ref_ms": self_ms.get("style.fill_ref", 0.0),
            "numeric.format_ms": format_ms,
            "counts": {
                **counts,
                "map.ctx_at_calls": tracer.calls["map.ctx_at"],
                "numeric.format_calls": tracer.calls["numeric.format"],
                "path_data.commands": tracer.sizes["path_data.parse"],
                "transform.ops": tracer.sizes["transform.parse"],
                "style.fill_ref_calls": sum(1 for span in tracer.spans if span.name == "style.fill_ref"),
            },
            "tracer": tracer,
        })

    allocs = AllocPeaks()
    tracemalloc.start()
    try:
        for doc in bench.corpus.documents:
            bench.pipeline(doc.text, allocs.stage)
    finally:
        tracemalloc.stop()

    last = traced[-1]
    counts = last["counts"]
    steady_counts = all(entry["counts"] == counts for entry in traced)
    traced_mbps = statistics.median(entry["mbps"] for entry in traced)
    rows = [(name, statistics.median(entry[name] for entry in traced), "ms") for name in (
        "parse.self_ms", "map.self_ms", "emit.self_ms", "path_data.parse_ms", "path_data.normalize_ms",
        "path_data.emit_ms", "numeric.format_ms", "transform.parse_ms", "transform.compose_ms", "style.fill_ref_ms",
    )]
    rows += [
        ("parse.nodes", counts["parse.nodes"], "count"),
        ("map.nodes_out", counts["map.nodes_out"], "count"),
        ("map.ctx_at_calls", counts["map.ctx_at_calls"], "count"),
        ("map.expansion_ratio", counts["map.nodes_out"] / counts["parse.nodes"] if counts["parse.nodes"] else 0.0, "ratio"),
        ("path_data.commands", counts["path_data.commands"], "count"),
        ("numeric.format_calls", counts["numeric.format_calls"], "count"),
        ("transform.ops", counts["transform.ops"], "count"),
        ("style.fill_ref_calls", counts["style.fill_ref_calls"], "count"),
        ("emit.output_bytes", counts["emit.output_bytes"], "bytes"),
        ("diagnostics.count", counts["diagnostics.count"], "count"),
        ("parse.peak_alloc_mb", allocs.peaks["parse"] / 1e6, "MB"),
        ("map.peak_alloc_mb", allocs.peaks["map"] / 1e6, "MB"),
        ("emit.peak_alloc_mb", allocs.peaks["emit"] / 1e6, "MB"),
        ("host.cal_ms", statistics.median(c for p in untraced for c in p.cal_ms), "ms"),
        ("trace.overhead_pct", (untraced_mbps / traced_mbps - 1.0) * 100.0, "%"),
    ]
    stages = {stage: statistics.median(entry["stages"][stage] for entry in traced) for stage in ("parse", "map", "emit")}
    total = sum(stages.values())
    print(f"{len(traced)} traced passes, {len(untraced)} untraced; times are per corpus pass, host-corrected")
    print("stage shares, sub-layer spans included: " + ", ".join(f"{stage} {100 * seconds / total:.0f}%" for stage, seconds in stages.items()))
    for name, value, unit in rows:
        print(f"{name:<24}{value:>16.6g}  {unit}")
    write_spans(bench.corpus, last["tracer"])
    return {name: {"value": value, "unit": unit} for name, value, unit in rows}, steady_counts


def write_spans(corpus: Corpus, tracer: Tracer) -> None:
    """The last traced pass's spans, times in ms from its first span."""
    origin = tracer.spans[0].start if tracer.spans else 0.0
    rows = [
        [span.name, (span.start - origin) * 1000.0, (span.end - origin) * 1000.0, span.parent, span.doc]
        for span in tracer.spans
    ]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{corpus.workload}-{corpus.seed}.json"
    path.write_text(json.dumps({"fields": ["name", "start_ms", "end_ms", "parent", "doc"], "spans": rows}))
    print(f"spans written to {path.relative_to(CHECKOUT)}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    svg2vml = import_converter()
    corpus = build_corpus(args.workload, args.seed)
    bench = Bench(svg2vml, corpus)
    print(f"workload {corpus.workload} seed {corpus.seed}: {len(corpus.documents)} documents, "
          f"{bench.input_mb:.6f} MB, mode {corpus.mode}, pretty {corpus.pretty}")
    bench.check_references()
    metrics, ok = (per_layer if args.trace else end_to_end)(bench, args)
    result = {"correct": ok and bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
