"""Write perfbench/reference.json: the report numbers at the default seed.

Runs each workload on each of its corpora at the default seed, and its
smoke variant on its one corpus, and records every psi, standard error
and cross-validation number.  Run it
again only when a change is meant to alter those numbers, and say so in
that change.

Usage: python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil

from run import CORPORA, DEFAULT_SEED, REFERENCE, RESULTS, Checker, corpus_seeds, report_numbers, run_once, set_up
from workloads import WORKLOADS, import_tonefx, pipeline_config, smoke


def main() -> None:
    import_tonefx()
    reference = {}
    work = RESULTS / "work"
    for workload in WORKLOADS.values():
        for variant, is_smoke, copies in ((workload, False, CORPORA), (smoke(workload), True, 1)):
            seeds = corpus_seeds(DEFAULT_SEED, copies)
            shutil.rmtree(work, ignore_errors=True)
            set_up(workload.name, is_smoke, seeds, work)
            for j, seed in enumerate(seeds):
                directory = work / f"corpus-{j}"
                config = pipeline_config(
                    variant, seed, directory / "corpus", directory / "run", variant.replicates
                )
                rep = run_once(config, not variant.warm, Checker(None))
                if not rep.ok:
                    raise SystemExit(f"{variant.name}/{j}: the run failed; no reference written")
                key = f"{variant.name}/{j}"
                reference[key] = report_numbers((directory / "run" / "report.json").read_bytes())
                print(f"{key}: {len(reference[key])} numbers, {rep.wall_s:.1f} s")
    shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
