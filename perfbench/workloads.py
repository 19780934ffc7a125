"""Workload definitions shared by the benchmark and its set-up process.

Every workload runs the default CorpusWorld (two debate topics) through
the full default analysis grid with ``jobs`` left at 1.  The fields
below are the only things that differ between workloads.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_tonefx() -> None:
    """Put the checkout's ``src`` first on the path, or exit with code 2.

    The benchmark must measure the source tree it sits in, never an
    installed copy, and must fail cleanly when that tree is absent.
    """
    if not (SRC / "tonefx" / "__init__.py").is_file():
        print(f"perfbench: no tonefx package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import tonefx

    if Path(tonefx.__file__).resolve().parent != SRC / "tonefx":
        print(f"perfbench: imported tonefx from {tonefx.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


@dataclass(frozen=True)
class Workload:
    name: str
    triples: int
    k: int
    replicates: int
    vocab_size: int = 60
    # warm: the topic cache is filled during set-up and every repetition
    # reuses that output directory; otherwise each repetition starts from
    # an empty output directory, so the cache always misses
    warm: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("text_cold", triples=240, k=12, replicates=0),
        Workload("text_wide_vocab", triples=160, k=12, replicates=0, vocab_size=2000),
        Workload("bootstrap_warm", triples=60, k=6, replicates=60, warm=True),
    )
}


def smoke(workload: Workload) -> Workload:
    """The same workload on a tiny corpus, for a run of a few seconds."""
    return replace(
        workload,
        name=f"smoke-{workload.name}",
        triples=40,
        k=3,
        replicates=min(workload.replicates, 5),
        vocab_size=min(workload.vocab_size, 200),
    )


def pipeline_config(workload: Workload, seed: int, corpus_dir: Path, out_dir: Path, replicates: int):
    from tonefx.harness.config import PipelineConfig

    return PipelineConfig(
        posts_path=str(corpus_dir / "posts.jsonl"),
        annotations_path=str(corpus_dir / "annotations.jsonl"),
        out_dir=str(out_dir),
        seed=seed,
        k=workload.k,
        bootstrap_replicates=replicates,
    )
