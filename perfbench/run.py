"""Benchmark of ``tonefx estimate`` on seeded synthetic corpora.

Set-up writes three corpora from the seed, in a child process.
Then one client in one process runs the real pipeline in a closed loop,
cycling over the corpora: each repetition starts when the previous one
has ended, until ``--seconds`` have passed.  With ``--trace 0`` the
same three set-ups run once more after the loop, so that ``setup_s``,
their median, samples the machine before and after the repetitions.
Every repetition's report.json must be byte-identical to the first one
on the same corpus; at the default seed its numbers must also match
perfbench/reference.json.

``--trace 0`` prints the end-to-end metrics, measured untraced; each
timing is the median over the run's repetitions or set-ups, and the
detail line keeps every one of them.  Every timed repetition and set-up
sits between two runs of a fixed calibration loop, and its times are
scaled to reference seconds by them (see calibrate.py); the detail line
also keeps the unscaled times.  ``--trace 1`` sets up one corpus,
repeats the untraced loop on it, then runs twice more with the tracer
installed and prints the per-layer metrics; every count must agree
exactly between the two traced runs.  Metric units are read from
BENCHMARK.json.

Usage:
    python3 perfbench/run.py --workload text_cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import calibrate, scale
from tracer import COUNT_METRICS, Tracer
from workloads import ROOT, WORKLOADS, Workload, import_tonefx, pipeline_config, smoke

HERE = Path(__file__).resolve().parent
RESULTS = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in SPEC[key]}
DEFAULT_SEED = 1
CORPORA = 3  # corpora per run; the repetitions cycle over them
TRACED_RUNS = 2
STAGES = ("load", "triples", "topics", "outcomes", "confounders", "crossval", "estimates", "report")
# a reference number passes when |value - reference| <= ATOL + RTOL * |reference|:
# wide enough for floating-point sums taken in another order, far too
# narrow for any change in what is computed
RTOL = 1e-7
ATOL = 1e-12


def close(got: float | None, want: float | None) -> bool:
    """Whether a report number matches its reference; NaN matches only NaN."""
    if got is None or want is None:
        return got is None and want is None
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    return got == want or abs(got - want) <= ATOL + RTOL * abs(want)


def report_numbers(report_bytes: bytes) -> dict[str, float | None]:
    """Every psi, standard error and cross-validation number, by a stable key."""
    document = json.loads(report_bytes)
    numbers: dict[str, float | None] = {}
    for est in document["estimates"]:
        key = "/".join(
            (est["reply_type"], est["category_type"], est["confounder_variant"], est["estimator"])
        )
        numbers[f"{key}/psi"] = est["psi"]
        numbers[f"{key}/standard_error"] = est["standard_error"]
    for cv in document["cv"]:
        key = "/".join(("cv", cv["reply_type"], cv["variant"], cv["category_type"]))
        for name in ("rmse_q0", "rmse_q1", "f1"):
            for fold, value in enumerate(cv[name]):
                numbers[f"{key}/{name}/{fold}"] = value
    return numbers


def reference_mismatches(numbers: dict, reference: dict) -> list[str]:
    if numbers.keys() != reference.keys():
        return [f"keys differ: {sorted(numbers.keys() ^ reference.keys())[:5]}"]
    return [
        f"{key}: {numbers[key]!r} != reference {want!r}"
        for key, want in reference.items()
        if not close(numbers[key], want)
    ]


class Checker:
    """Correctness of each repetition's report.json."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.first: bytes | None = None
        self.first_ok = True

    def check(self, report_bytes: bytes) -> bool:
        if self.first is None:
            self.first = report_bytes
            if self.reference is not None:
                bad = reference_mismatches(report_numbers(report_bytes), self.reference)
                for line in bad[:10]:
                    print(f"perfbench: reference mismatch {line}", file=sys.stderr)
                self.first_ok = not bad
            return self.first_ok
        if report_bytes != self.first:
            print("perfbench: report.json differs from the first repetition", file=sys.stderr)
            return False
        return self.first_ok


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    ok: bool
    timings: dict[str, float] = field(default_factory=dict)
    scale: float = 1.0  # reference seconds per measured second, from calibrate.py

    @property
    def run_s(self) -> float:
        return self.wall_s * self.scale


def calibrated(reps: list[Rep], calibration: list[float]) -> None:
    """Set each repetition's scale from the calibrations just before and after it."""
    for rep, before, after in zip(reps, calibration[:-1], calibration[1:], strict=True):
        rep.scale = scale(before, after)


def cpu_seconds() -> float:
    """User and system CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_once(config, fresh: bool, checker: Checker, tracer=None) -> Rep:
    """One ``estimate`` run; a fresh run starts from an empty output directory."""
    from tonefx.harness.pipeline import run_pipeline

    out_dir = Path(config.out_dir)
    if fresh:
        shutil.rmtree(out_dir, ignore_errors=True)
    report = None
    with tracer if tracer is not None else nullcontext():
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        try:
            report = run_pipeline(config)
        except Exception:  # a failed repetition is counted, and the loop goes on
            traceback.print_exc()
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu_start
    ok = False
    if report is not None:
        if report.failed_cells:
            print(f"perfbench: failed cells {report.failed_cells}", file=sys.stderr)
        else:
            ok = checker.check((out_dir / "report.json").read_bytes())
    return Rep(wall, cpu, ok, dict(report.timings) if report is not None else {})


def corpus_seeds(seed: int, count: int) -> list[int]:
    """Seeds of a run's corpora; runs with different seeds share none."""
    return [seed * 100 + j for j in range(count)]


def set_up(name: str, is_smoke: bool, seeds: list[int], directory: Path) -> dict[str, list[float]]:
    """Prepare one corpus per seed, as ``directory/corpus-<j>``, in a child process.

    Returns the per-corpus set-up times and times inside generate_corpus,
    both measured in the child.
    """
    command = [
        sys.executable, str(HERE / "setup_workload.py"), "--workload", name,
        "--seeds", ",".join(map(str, seeds)), "--dir", str(directory),
    ] + (["--smoke"] if is_smoke else [])
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench: set-up in {directory} exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, when it can be asked."""
    import numpy

    for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python_threads": threading.active_count(),
        "machine": platform.machine(),
        "seed": seed,
        "load": "closed loop, 1 client, 1 process, no pool",
    }


def spread(values: list[float]) -> dict:
    return {
        "n": len(values),
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "values": values,
    }


def measure(workload: Workload, is_smoke: bool, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, run the closed loop and return (result line, detail record)."""
    work = RESULTS / "work"
    shutil.rmtree(work, ignore_errors=True)
    copies = 1 if trace or is_smoke else CORPORA
    base = workload.name.removeprefix("smoke-")
    references = json.loads(REFERENCE.read_text(encoding="utf-8")) if seed == DEFAULT_SEED else None
    seeds = corpus_seeds(seed, copies)
    prepared = set_up(base, is_smoke, seeds, work / "corpora")
    setups, raw_setups = prepared["setup_s"], prepared["raw_setup_s"]
    generate = prepared["generate_corpus_s"]
    configs, checkers = [], []
    for j, corpus_seed in enumerate(seeds):
        directory = work / "corpora" / f"corpus-{j}"
        configs.append(
            pipeline_config(
                workload, corpus_seed, directory / "corpus", directory / "run", workload.replicates
            )
        )
        checkers.append(Checker(references[f"{workload.name}/{j}"] if references else None))
    fresh = not workload.warm

    reps: list[Rep] = []
    calibration = [calibrate()]
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        j = len(reps) % copies
        reps.append(run_once(configs[j], fresh, checkers[j]))
        calibration.append(calibrate())
    calibrated(reps, calibration)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not trace:
        again = set_up(base, is_smoke, seeds, work / "again")
        setups += again["setup_s"]
        raw_setups += again["raw_setup_s"]

    detail = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(seed),
        "setup_s": spread(setups),
        "run_s": spread([r.run_s for r in reps]),
        "cpu_s": spread([r.cpu_s * r.scale for r in reps]),
        "raw_setup_s": spread(raw_setups),
        "raw_run_s": spread([r.wall_s for r in reps]),
        "raw_cpu_s": spread([r.cpu_s for r in reps]),
        "calibrate_s": spread(calibration),
    }
    repeat = True
    if not trace:
        metrics = {
            "run_s": statistics.median(r.run_s for r in reps),
            "cpu_s": statistics.median(r.cpu_s * r.scale for r in reps),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setups),
        }
    else:
        tracers, traced = [], []
        calibration = [calibrate()]
        for _ in range(TRACED_RUNS):
            tracers.append(Tracer())
            traced.append(run_once(configs[0], fresh, checkers[0], tracers[-1]))
            calibration.append(calibrate())
        calibrated(traced, calibration)
        counts = [t.counts() for t in tracers]
        repeat = all(c == counts[0] for c in counts)
        if not repeat:
            print(f"perfbench: counts differ between traced runs: {counts}", file=sys.stderr)
            traced[-1].ok = False
        first = counts[0]
        metrics = {
            f"pipeline.{stage}_s": statistics.median(r.timings.get(stage, 0.0) for r in reps)
            for stage in STAGES
        }
        seconds_by_run = [t.seconds() for t in tracers]
        for name in seconds_by_run[0]:
            metrics[name] = statistics.median(s[name] for s in seconds_by_run)
        metrics.update({name: first[name] for name in COUNT_METRICS})
        for name, numerator, base in (
            ("topics.tokenize_per_post", "topics.tokenize_calls", "corpus.posts"),
            ("lexicon.categorize_per_form", "lexicon.categorize_token_calls", "lexicon.distinct_forms"),
            ("estimators.refits_per_resample", "estimators.bootstrap_propensity_fits", "estimators.resamples"),
        ):
            metrics[name] = first[numerator] / first[base] if first[base] else 0.0
        metrics["synthetic.generate_corpus_s"] = statistics.median(generate)
        metrics["trace_overhead_frac"] = (
            statistics.median(r.run_s for r in traced) / statistics.median(r.run_s for r in reps) - 1.0
        )
        reps += traced
        detail["traced_run_s"] = [r.run_s for r in traced]

    failed = sum(not r.ok for r in reps)
    if trace:
        metrics["failed_frac"] = failed / len(reps)
    shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": repeat and failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS.get(name)} for name, value in metrics.items()},
    }
    return result, detail


def run_smoke() -> int:
    """Tiny corpora, one repetition: every metric present with its unit, outputs correct."""
    problems = []
    for workload in SPEC["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            start = time.perf_counter()
            result, _ = measure(smoke(WORKLOADS[workload["name"]]), True, DEFAULT_SEED, 0, trace)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload['name']} {key}: metrics {got} != {want}")
            if not result["correct"]:
                problems.append(f"{workload['name']} {key}: correctness check failed")
            print(
                f"smoke {workload['name']:<16} trace={int(trace)} "
                f"correct={result['correct']} metrics={len(got)} "
                f"{time.perf_counter() - start:.1f} s"
            )
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark tonefx estimate.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="a nonnegative integer")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpora, all workloads, one repetition")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    import_tonefx()
    RESULTS.mkdir(exist_ok=True)
    if args.smoke:
        return run_smoke()
    result, detail = measure(
        WORKLOADS[args.workload], False, args.seed, args.seconds, bool(args.trace)
    )
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
