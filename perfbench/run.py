"""pairsel benchmark: time to a Monte Carlo verdict through the CLI.

    python3 perfbench/run.py --workload crs-ocrs --seed 1 --seconds 36 --trace 0

Run from the root of a pairsel checkout; the package is imported from its
``src/`` directory.  One client in this process issues rounds of the
workload's command mix back to back through ``pairsel.cli.run`` for
``--seconds`` of wall time and checks every report.  Timings are stated at
a fixed reference speed of the machine (see ``speed.py``); wall seconds are
printed next to them.  With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it runs untraced rounds for half the time, then a fixed
number of traced rounds at the same seeds, and prints the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

from speed import REFERENCE_S, Speed, scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# (metric, unit): the end-to-end metrics of the result line, as in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("verdict_s.p50", "s"),
    ("verdict_s.tail", "s"),
    ("trials_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)
# Printed with the others but left out of the result line: ops and ops_failed
# are its attempted and failed counts, and time_to_accuracy_s on crs-hardness rests
# on about 20 rank-deficit events per run, so its spread over seeds exceeds
# any bound the benchmark may set.
UNBOUNDED = (("time_to_accuracy_s", "s"), ("ops", "count"), ("ops_failed", "count"))
SETUP_REPEATS = 5
# Rounds beyond the tail percentile; with 2 * TAIL_BEYOND rounds or fewer the tail is the median.
TAIL_BEYOND = 10

SETUP_CHILD = """
import time
start = time.perf_counter()
import pairsel.cli
import workloads
workloads.WORKLOADS[{name!r}].build_fixed()
print(repr(time.perf_counter() - start))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import ``pairsel`` from this checkout's sources, or raise SystemExit."""
    if not os.path.isfile(os.path.join(SRC, "pairsel", "cli.py")):
        raise SystemExit(f"error: no pairsel sources at {SRC}; run from a pairsel checkout")
    sys.path.insert(0, SRC)
    import pairsel.cli

    if os.path.dirname(os.path.abspath(pairsel.__file__)) != os.path.join(SRC, "pairsel"):
        raise SystemExit(f"error: imported pairsel from {pairsel.__file__}, not from {SRC}")
    return pairsel


def run_round(cli, workload, seed: int, index: int, speed=None) -> list:
    """One round of the workload's mix; with ``speed``, the machine's speed is
    sampled before the first command and after each, and every result gets
    its seconds at the reference speed."""
    from workloads import execute, op_seed

    results = []
    before = speed.sample() if speed else None
    for pos, command in enumerate(workload.commands):
        result = execute(cli, command, op_seed(workload.name, seed, index, pos))
        if speed:
            after = speed.sample()
            result.scaled = scale(result.seconds, before, after)
            before = after
        results.append(result)
    return results


def run_for(cli, workload, seed: int, seconds: float, rounds: list, speed, pause=None) -> None:
    """Closed loop: append rounds to ``rounds`` until their commands have taken
    ``seconds`` of wall time.

    ``pause(elapsed)``, if given, runs before each round, off the clock.
    """
    elapsed = 0.0
    while not rounds or elapsed < seconds:
        if pause is not None:
            pause(elapsed)
        rounds.append(run_round(cli, workload, seed, len(rounds), speed))
        elapsed += wall_seconds(rounds[-1])


def wall_seconds(results) -> float:
    return sum(r.seconds for r in results)


def round_seconds(results) -> float:
    """Seconds of a round at the reference speed."""
    return sum(r.scaled for r in results)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND rounds beyond it."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND
    if 2 * k <= len(ordered):
        return 50.0, statistics.median(ordered)
    return 100.0 * k / len(ordered), ordered[k - 1]


def time_to_accuracy(workload, rounds) -> float:
    """Seconds to reach every command's stated standard error.

    Per command: median seconds per call at the reference speed x (standard
    error / stated standard error)^2, with the squared error averaged over
    rounds so that the per-trial variance comes from every measured trial;
    summed over the mix.
    """
    total = 0.0
    for pos, command in enumerate(workload.commands):
        results = [rnd[pos] for rnd in rounds if rnd[pos].std_error is not None]
        if not results:  # every round failed, which already marks the run incorrect
            return 0.0
        seconds = statistics.median(r.scaled for r in results)
        mean_se2 = statistics.fmean(r.std_error ** 2 for r in results)
        total += seconds * mean_se2 / command.stated_se ** 2
    return total


def measure_setup(name: str, speed) -> float:
    """Seconds a fresh interpreter takes to import pairsel.cli and build the
    workload's fixed objects, at the reference speed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    before = speed.sample()
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD.format(name=name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return scale(float(out.stdout.strip().splitlines()[-1]), before, speed.sample())


def report_failures(rounds) -> int:
    """Print every failed round and count them; also print round 0's body digests."""
    print("round 0 body sha256: " + " ".join(r.digest or "-" for r in rounds[0]))
    failed = 0
    for index, results in enumerate(rounds):
        bad = [r.describe() for r in results if r.failed]
        if bad:
            failed += 1
            print(f"round {index} failed: " + " | ".join(bad))
    return failed


def end_to_end(pairsel, workload, args, speed) -> tuple[bool, int, int, dict]:
    cli = pairsel.cli
    # Set-up samples are spread over the run, between rounds, so that their
    # median sees the machine's speed over the same span as the rounds do.
    setups: list = []

    def sample_setup(elapsed: float) -> None:
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * args.seconds / SETUP_REPEATS:
            setups.append(measure_setup(workload.name, speed))

    rounds: list = []
    run_for(cli, workload, args.seed, args.seconds, rounds, speed, sample_setup)
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(workload.name, speed))
    failed = report_failures(rounds)
    correct = failed == 0
    times = [round_seconds(r) for r in rounds]
    pct, tail_s = tail(times)
    trials = sum(c.trials for c in workload.commands) * len(rounds)
    values = {
        "setup_s": statistics.median(setups),
        "verdict_s.p50": statistics.median(times),
        "verdict_s.tail": tail_s,
        "trials_per_s": trials / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "time_to_accuracy_s": time_to_accuracy(workload, rounds),
        "ops": len(rounds),
        "ops_failed": failed,
    }
    print(f"verdict_s.tail is p{pct:.1f} of {len(rounds)} rounds; "
          f"setup_s is the median of {SETUP_REPEATS} fresh interpreters started between rounds")
    print(f"wall seconds: verdict p50 {statistics.median(wall_seconds(r) for r in rounds):.4g} s; "
          f"reference loop {statistics.median(speed.samples):.4g} s median "
          f"of {len(speed.samples)} samples, {REFERENCE_S} s at the reference speed")
    for name, unit in UNBOUNDED:
        print(f"{name} = {values[name]:.6g} {unit}")
    for pos, command in enumerate(workload.commands):
        print(f"{' '.join(command.argv)}: median "
              f"{statistics.median(r[pos].scaled for r in rounds):.4g} s per call")
    if any(c.name == "crs-hardness" for c in workload.commands):
        correct &= threads_check(cli, args.seed)
    return correct, len(rounds), failed, {
        name: {"value": values[name], "unit": unit} for name, unit in END_TO_END
    }


def threads_check(cli, seed: int) -> bool:
    """``--threads`` must change wall time only: 1 and 2 threads give one body."""
    from workloads import crs_command, execute, op_seed

    seed = op_seed("threads-check", seed, 0, 0)
    one = execute(cli, crs_command(5, 5, 2, 4096, threads=1), seed)
    two = execute(cli, crs_command(5, 5, 2, 4096, threads=2), seed)
    same = one.digest is not None and one.digest == two.digest
    print(f"threads check: --threads 1 {one.seconds:.3f} s, --threads 2 {two.seconds:.3f} s, "
          f"bodies {'identical' if same else 'DIFFER'}")
    return same


def per_layer(pairsel, workload, args, speed) -> tuple[bool, int, int, dict]:
    from spans import PER_LAYER, Tracer, layer_metrics, silent_layers

    untraced: list = []
    run_for(pairsel.cli, workload, args.seed, args.seconds / 2, untraced, speed)
    tracer = Tracer()
    tracer.install(pairsel)
    try:
        traced = [run_round(pairsel.cli, workload, args.seed, i, speed)
                  for i in range(workload.traced_rounds)]
    finally:
        tracer.uninstall()
    rounds = untraced + traced
    failed = report_failures(rounds)
    correct = failed == 0
    for index, (plain, wrapped) in enumerate(zip(untraced, traced)):
        if [r.digest for r in plain] != [r.digest for r in wrapped]:
            correct = False
            print(f"round {index}: traced and untraced report bodies differ at the same seed")
    spans, counts = tracer.totals()
    missing = silent_layers(workload.layers, spans, counts)
    if missing:
        correct = False
        print(f"spans recorded no call on {workload.name}: {', '.join(missing)}")
    overhead = (statistics.median(round_seconds(r) for r in traced)
                / statistics.median(round_seconds(r) for r in untraced))
    trials = sum(c.trials for c in workload.commands) * len(traced)
    values = layer_metrics(spans, counts, trials, overhead)
    print(f"traced rounds: {len(traced)}; untraced rounds: {len(untraced)}")
    return correct, len(rounds), failed, {
        name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    pairsel = load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    with Speed() as speed:
        correct, attempted, failed, metrics = measure(pairsel, workload, args, speed)
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
