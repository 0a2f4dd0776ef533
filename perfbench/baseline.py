"""Run the benchmark in two sets of seeds 1-10 on every workload, check it, and record a baseline.

    python3 perfbench/baseline.py            # report only
    python3 perfbench/baseline.py --write    # also rebuild baseline.json

Set 1 runs every workload in BENCHMARK.json at seeds 1-10, then set 2 runs
them all again at the same seeds.  For each end-to-end metric and set it
prints the median of the ten runs and the distance between the first and
third quartile as a share of the median, next to the metric's bound; then by
how much set 2's median is worse than set 1's, which must stay within the
bound.  Every run's round-0 report digests must repeat between the sets, and
two traced runs per workload at seed 1 must give the same count metrics.

``--write`` refuses when any run failed or any check did not hold; a metric
beyond its bound is recorded, not refused.  Otherwise it rebuilds
baseline.json: both sets' figures, the metrics beyond their bound, the rounds
run per workload, the traced run's per-layer values and layer shares, the
round-0 digests at seed 1, the versions and machine the numbers come from,
and the measured findings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

import run

BASELINE = os.path.join(run.HERE, "baseline.json")
SPEC = os.path.join(run.ROOT, "BENCHMARK.json")
SEEDS = range(1, 11)
SETS = 2


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def fresh_import_seconds(statement: str, prelude: str = "", repeats: int = 3) -> float:
    """Median seconds ``statement`` takes in a fresh interpreter after ``prelude``."""
    code = (f"import time\n{prelude}\nstart = time.perf_counter()\n{statement}\n"
            "print(time.perf_counter() - start)")
    env = dict(os.environ, PYTHONPATH=run.SRC)
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout)
        for _ in range(repeats)
    )


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rebuild baseline.json")
    args = parser.parse_args(argv)
    with open(SPEC) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    # sets[i][workload] = list of (result, text) per seed
    sets = [{name: [] for name in names} for _ in range(SETS)]
    for index, runs in enumerate(sets, 1):
        for workload in names:
            for seed in SEEDS:
                result, text = bench(workload, seed, seconds, 0)
                runs[workload].append((result, text))
                print(f"set {index} {workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)

    problems, beyond = [], []  # failed checks; metrics beyond their bound
    rounds, summary = {}, {}
    for workload in names:
        results = [r for runs in sets for r, _ in runs[workload]]
        failed = sum(r["failed"] for r in results)
        rounds[workload] = {"attempted": sum(r["attempted"] for r in results), "failed": failed}
        if failed or not all(r["correct"] for r in results):
            problems.append(f"{workload}: {failed} failed rounds or an incorrect run")
        digests = [[digest_line(text) for _, text in runs[workload]] for runs in sets]
        if digests[0] != digests[1]:
            problems.append(f"{workload}: round-0 digests differ between the sets")
        summary[workload] = {}
        print(f"{workload}: {rounds[workload]['attempted']} rounds, {failed} failed")
        for name, metric in metrics.items():
            stats = [spread([r["metrics"][name]["value"] for r, _ in runs[workload]])
                     for runs in sets]
            first, second = stats[0]["median"], stats[1]["median"]
            worse = (second - first) / first
            if metric["better"] == "higher":
                worse = -worse
            summary[workload][name] = {"unit": metric["unit"], "bound": metric["bound"],
                                       "sets": stats, "set2_worse_by": worse}
            line = "; ".join(f"set {i} median {s['median']:.4g}, spread {s['spread']:.3f}"
                             for i, s in enumerate(stats, 1))
            flags = []
            if worse > metric["bound"]:
                flags.append("set 2 worse beyond the bound")
                beyond.append(f"{workload} {name}: set 2 worse by {worse:.3f}")
            if name != "setup_s" and max(s["spread"] for s in stats) > metric["bound"]:
                flags.append("spread beyond the bound")
                beyond.append(f"{workload} {name}: spread beyond the bound")
            elif max(s["spread"] for s in stats) > metric["bound"] / 3:
                flags.append("spread above a third of the bound")
            print(f"  {name} [{metric['unit']}]: {line}; set 2 worse by {worse:+.3f}; "
                  f"bound {metric['bound']}" + "".join(f"  ({f})" for f in flags))

    traced = {}
    for workload in names:
        first, second = (bench(workload, SEEDS[0], seconds, 1)[0] for _ in range(2))
        if not (first["correct"] and second["correct"]):
            problems.append(f"{workload}: a traced run was incorrect")
        counts = {k for k, v in first["metrics"].items() if v["unit"] == "count"}
        differ = sorted(k for k in counts
                        if first["metrics"][k]["value"] != second["metrics"][k]["value"])
        if differ:
            problems.append(f"{workload}: traced counts differ between runs: {', '.join(differ)}")
        print(f"{workload} traced: overhead ratio "
              f"{first['metrics']['trace.overhead_ratio']['value']:.3f}, "
              f"{len(counts)} count metrics " + ("differ" if differ else "repeat"))
        traced[workload] = {k: v["value"] for k, v in first["metrics"].items()}

    for problem in problems:
        print(f"problem: {problem}")
    for metric in beyond:
        print(f"beyond the bound: {metric}")
    print(f"{len(problems)} failed check(s), {len(beyond)} metric(s) beyond the bound")
    if args.write:
        if problems:
            print("baseline.json not written")
        else:
            write_baseline(summary, rounds, traced, sets, seconds, beyond)
    return 1 if problems or beyond else 0


def digest_line(text: str) -> str:
    return next(line for line in text.splitlines() if line.startswith("round 0 body sha256:"))


def write_baseline(summary: dict, rounds: dict, traced: dict, sets: list, seconds: int,
                   beyond: list[str]) -> None:
    import numpy
    import scipy

    pairsel = run.load_program()
    import spans
    import speed
    import workloads

    record = {
        "environment": {
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "recorded_at": time.strftime("%Y-%m-%d", time.gmtime()),
        },
        "run_seconds": seconds,
        "reference_s": speed.REFERENCE_S,
        "seeds": [SEEDS[0], SEEDS[-1]],
        "sets": SETS,
        "end_to_end": summary,
        "beyond_bound": beyond,
        "rounds": rounds,
        "per_layer": traced,
        "stated_se": {
            w.name: {" ".join(c.argv): {"headline": c.headline_name, "stated_se": c.stated_se}
                     for c in w.commands}
            for w in workloads.WORKLOADS.values()
        },
        "layer_shares": {}, "digests": {}, "per_command_s": {},
    }
    round_zero = {}
    for name, w in workloads.WORKLOADS.items():
        with speed.Speed() as reference:
            results = round_zero[name] = run.run_round(pairsel.cli, w, SEEDS[0], 0, reference)
        record["digests"][name] = [r.digest for r in results]
        tracer = spans.Tracer()
        tracer.install(pairsel)
        try:
            run.run_round(pairsel.cli, w, SEEDS[0], 0)
        finally:
            tracer.uninstall()
        record["layer_shares"][name] = spans.layer_shares(tracer.totals()[0])
        record["per_command_s"][name] = {
            " ".join(c.argv): {"trials": c.trials, "seconds": round(r.scaled, 4),
                               "wall_seconds": round(r.seconds, 4)}
            for c, r in zip(w.commands, results)
        }
    notes = [text for runs in sets for texts in runs.values() for _, text in texts]
    record["findings"] = findings(pairsel, workloads, round_zero, notes)
    with open(BASELINE, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {BASELINE}")


def findings(pairsel, workloads, round_zero, notes) -> list[dict]:
    numpy_s = fresh_import_seconds("import numpy")
    stats_s = fresh_import_seconds("from scipy import stats", prelude="import numpy")
    cli_s = fresh_import_seconds("import pairsel.cli")
    negative = workloads.execute(pairsel.cli, workloads.NEGATIVE_CONTROL, SEEDS[0])
    pairs = [tuple(map(float, m.groups())) for text in notes
             for m in [re.search(r"--threads 1 ([\d.]+) s, --threads 2 ([\d.]+) s", text)] if m]
    bodies = {r.command.name: r.body for results in round_zero.values() for r in results}
    hardness, bench = bodies["prophet-hardness"], bodies["prophet-bench"]
    return [
        {
            "topic": "ocrs-vacuity",
            "finding": "ocrs-bench at the acceptance instance q=5 d=5 c=2 has 15,625 elements "
                       "and 5 actives per trial, so below about 15625*30/5 = 93,750 trials no "
                       "element reaches the 30-occurrence floor and the command exits 1",
            "measured": {"trials": workloads.NEGATIVE_CONTROL.trials,
                         "outcome": negative.describe()},
        },
        {
            "topic": "prophet-headlines",
            "finding": "on the hardness event the prophet value and the bucketing reward are "
                       "deterministic, so their standard error is 0; only the randomized "
                       "gamblers of prophet-hardness carry Monte Carlo error",
            "measured": {"prophet_std_error": hardness["prophet"]["std_error"],
                         "reward_std_error": bench["reward"]["std_error"],
                         "gambler_std_errors": {p["name"]: p["reward"]["std_error"]
                                                for p in hardness["policies"]}},
        },
        {
            "topic": "setup",
            "finding": "the scipy.stats import in pairsel.instances dominates setup_s",
            "measured": {"import_pairsel_cli_s": round(cli_s, 3),
                         "import_scipy_stats_after_numpy_s": round(stats_s, 3),
                         "import_numpy_s": round(numpy_s, 3)},
        },
        {
            "topic": "threads",
            "finding": "--threads 2 is no faster than --threads 1: the thread pool runs "
                       "GIL-bound Python (ROADMAP: 6.71 s against 7.13 s at 20k trials)",
            "measured": {"command": "crs-hardness --q 5 --d 5 --c 2 --trials 4096",
                         "threads_1_median_s": round(statistics.median(p[0] for p in pairs), 4),
                         "threads_2_median_s": round(statistics.median(p[1] for p in pairs), 4),
                         "runs": len(pairs)},
        },
    ]


if __name__ == "__main__":
    sys.exit(main())
