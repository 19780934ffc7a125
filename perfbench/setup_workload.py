"""Prepare corpora of one workload: the set-ups whose times give ``setup_s``.

Runs in its own process so that set-up memory does not count towards
the benchmark process's ``peak_rss_mb``.  For each seed it writes the
synthetic corpus (the ``tonefx simulate`` path) under
``<dir>/corpus-<j>/corpus``; for a warm workload it then runs
``estimate`` once with no bootstrap into ``<dir>/corpus-<j>/run``, which
fills the topic-model cache (its key ignores the replicate count).

Each set-up is timed inside this process, so interpreter start-up and
imports are not part of it, between two runs of ``calibrate()``.  Prints
one JSON line with, per seed, the set-up time in reference seconds (see
calibrate.py), the raw set-up time and the raw time spent inside
``generate_corpus``.

Usage: python3 perfbench/setup_workload.py --workload NAME --seeds N[,N...] --dir DIR [--smoke]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from calibrate import calibrate, scale
from workloads import WORKLOADS, import_tonefx, pipeline_config, smoke


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, help="comma-separated corpus seeds")
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    import_tonefx()
    from tonefx.harness.pipeline import run_pipeline
    from tonefx.harness.synthetic import CorpusWorld, generate_corpus

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    setup_s, raw_s, generate_s = [], [], []
    for j, seed in enumerate(int(s) for s in args.seeds.split(",")):
        directory = args.dir / f"corpus-{j}"
        before = calibrate()
        start = time.perf_counter()
        generate_corpus(
            CorpusWorld(vocab_size=workload.vocab_size),
            workload.triples,
            seed=seed,
            out_dir=directory / "corpus",
        )
        generate_s.append(time.perf_counter() - start)
        if workload.warm:
            run_pipeline(pipeline_config(workload, seed, directory / "corpus", directory / "run", 0))
        raw_s.append(time.perf_counter() - start)
        setup_s.append(raw_s[-1] * scale(before, calibrate()))
    print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_s, "generate_corpus_s": generate_s}))


if __name__ == "__main__":
    main()
