"""Self-test of the pairsel benchmark; exits 0 when every check holds.

    python3 perfbench/selftest.py

Checks, from the root of a pairsel checkout:

* BENCHMARK.json names exactly the workloads and metrics the runner prints;
* the negative control (the acceptance OCRS instance at a few thousand
  trials, vacuous with ``qualifying_elements=0``) counts as a failed
  operation and not as a crash, while an exception escaping ``cli.run`` and
  a usage error count as crashes;
* a round repeated at one seed gives identical report digests, and
  ``--threads 1`` and ``--threads 2`` give one body;
* every span the workload table maps to a workload records a call there,
  and tracing leaves the report bodies unchanged.

Digests that differ from the ones recorded in baseline.json are reported as
drift, not as failures: a documented change to how random numbers are
consumed moves them.
"""

from __future__ import annotations

import json
import os
import sys

import run

SEED = 1


def main() -> int:
    pairsel = run.load_program()
    import spans
    import speed
    import workloads

    cli = pairsel.cli
    problems: list[str] = []

    def check(ok: bool, what: str):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads match the runner")
    check([m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
          and [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END],
          "BENCHMARK.json end-to-end metrics match the runner")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.PER_LAYER),
          "BENCHMARK.json per-layer metrics match the runner")

    negative = workloads.execute(cli, workloads.NEGATIVE_CONTROL, SEED)
    check(negative.crash is None and negative.failed
          and any("qualifying_elements=0" in f for f in negative.failures),
          f"negative control is a failed verdict, not a crash ({negative.describe()})")
    check(run.report_failures([[negative]]) == 1, "negative control counts under ops_failed")

    config = os.path.join(run.HERE, ".selftest-config.json")
    try:
        with open(config, "w") as fh:
            json.dump({"confidence": "3"}, fh)
        bad_config = workloads.execute(cli, workloads.crs_command(5, 5, 2, 64), SEED,
                                       ("--config", config))
    finally:
        os.remove(config)
    check(bad_config.crash is not None, f"an escaping exception is a crash ({bad_config.describe()})")
    usage = workloads.execute(cli, workloads.crs_command(5, 2, 2, 64), SEED)
    check(usage.crash is not None and usage.crash.startswith("exit 2"),
          f"a usage error is a crash ({usage.describe()})")

    check(run.threads_check(cli, SEED), "--threads 1 and --threads 2 give one body")

    with speed.Speed() as reference:
        sample = reference.sample()
    check(sample > 0 and reference.child.poll() is not None,
          f"the reference loop times itself ({sample:.4g} s) and its process ends")

    recorded = {}
    baseline_path = os.path.join(run.HERE, "baseline.json")
    if os.path.exists(baseline_path):
        with open(baseline_path) as fh:
            recorded = json.load(fh).get("digests", {})
    for name, workload in workloads.WORKLOADS.items():
        first = run.run_round(cli, workload, SEED, 0)
        second = run.run_round(cli, workload, SEED, 0)
        check(not any(r.failed for r in first + second),
              f"{name}: round 0 passes ({'; '.join(r.describe() for r in first if r.failed)})")
        digests = [r.digest for r in first]
        check(digests == [r.digest for r in second], f"{name}: repeated round gives identical digests")
        tracer = spans.Tracer()
        tracer.install(pairsel)
        try:
            traced = run.run_round(cli, workload, SEED, 0)
        finally:
            tracer.uninstall()
        check(digests == [r.digest for r in traced], f"{name}: tracing leaves bodies unchanged")
        silent = spans.silent_layers(workload.layers, *tracer.totals())
        check(not silent, f"{name}: every span mapped to it records a call "
                          f"({', '.join(silent) or 'none silent'})")
        if name in recorded and recorded[name] != digests:
            print(f"note {name}: digests drifted from baseline.json at seed {SEED} "
                  f"(reported, not a failure)")

    print(f"{len(problems)} check(s) failed" if problems else "all checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
