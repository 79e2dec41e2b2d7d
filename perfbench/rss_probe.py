"""Child process for peak_rss_mb: converts one workload's corpus once, tracing off.

    python3 perfbench/rss_probe.py <workload> <seed>

Prints one JSON line: ru_maxrss in KiB, failed documents, and the sha256 of
the outputs, which the parent compares with its own.
"""

import hashlib
import json
import resource
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import svg2vml  # noqa: E402
from corpus import build_corpus  # noqa: E402


def main() -> None:
    corpus = build_corpus(sys.argv[1], int(sys.argv[2]))
    options = svg2vml.ConvertOptions(mode=corpus.mode, pretty=corpus.pretty)
    digest = hashlib.sha256()
    failed = 0
    for doc in corpus.documents:
        output, diagnostics = svg2vml.convert_text(doc.text, options)
        if output is None or len(diagnostics):
            failed += 1
        digest.update((output or "").encode("utf-8"))
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"maxrss_kb": maxrss_kb, "failed": failed, "sha256": digest.hexdigest()}))


if __name__ == "__main__":
    main()
