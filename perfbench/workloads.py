"""Workloads of the pairsel benchmark and the check applied to every command.

A workload is a fixed mix of ``pairsel`` CLI commands.  One round of the mix
is one operation; the benchmark issues rounds back to back from one client
(a closed loop) and derives every command's ``--seed`` from the workload
seed, the round index and the command's position in the round.

Each command names its headline estimates and the standard error they are
stated to (``stated_se``).  ``time_to_accuracy_s`` scales the measured time
by (largest headline standard error / stated standard error)^2, so variance
reduction and exact closed forms show up in it as well as raw speed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

from pairsel import instances, matroid, schemes, verify


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    trials: int
    headline_name: str
    headlines: Callable[[dict], list[dict]]
    stated_se: float
    vacuous: Callable[[dict], str | None] = lambda body: None

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    traced_rounds: int
    build_fixed: Callable[[], object]
    # Per-layer spans that must record at least one call on this workload.
    layers: frozenset[str]


@dataclass
class Result:
    """Outcome of one command: wall seconds, report body, and why it failed.

    ``scaled`` is ``seconds`` at the reference speed of ``speed.py``, set by a
    runner that samples the machine's speed around the command.
    """

    command: Command
    seconds: float
    scaled: float | None = None
    body: dict | None = None
    digest: str | None = None
    std_error: float | None = None
    crash: str | None = None
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.crash is not None or bool(self.failures)

    def describe(self) -> str:
        if self.crash is not None:
            return f"{self.command.name}: crash: {self.crash}"
        return f"{self.command.name}: " + "; ".join(self.failures)


def op_seed(workload: str, seed: int, round_index: int, position: int) -> int:
    """The ``--seed`` of one command, a pure function of the workload seed."""
    key = f"{workload}/{seed}/{round_index}/{position}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big") >> 1


def body_digest(body: dict) -> str:
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def execute(cli, command: Command, seed: int, extra: tuple[str, ...] = ()) -> Result:
    """Run one command in process through ``cli.run`` and check its report.

    ``cli.run`` is looked up on every call so that a traced wrapper installed
    on the module is the one that runs.
    """
    argv = [*command.argv, "--trials", str(command.trials), "--seed", str(seed),
            "--format", "json", *extra]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
    except Exception as exc:  # an exception escaping cli.run is a crash, not a verdict
        return Result(command, time.perf_counter() - start,
                      crash=f"{type(exc).__name__}: {exc}")
    result = Result(command, time.perf_counter() - start)
    stderr = err.getvalue()
    if code not in (0, 1) or "Traceback" in stderr:
        result.crash = f"exit {code}: {stderr.strip()[-300:]}"
        return result
    try:
        report = json.loads(out.getvalue())
        body = report["body"]
        if report["header"]["command"] != command.name:
            raise ValueError(f"report is for {report['header']['command']!r}")
    except (ValueError, KeyError, TypeError) as exc:
        result.crash = f"unreadable report: {exc}"
        return result
    result.body, result.digest = body, body_digest(body)
    if code == 1:
        result.failures.append("verdict failed (exit 1)")
    if body.get("pass") is not True:
        result.failures.append(f"body.pass is {body.get('pass')!r}")
    reason = command.vacuous(body)
    if reason:
        result.failures.append(f"vacuous: {reason}")
    try:
        pairs = [(float(e["mean"]), float(e["std_error"])) for e in command.headlines(body)]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        result.failures.append(f"headline {command.headline_name} missing: {exc!r}")
        return result
    if not pairs or not all(math.isfinite(m) and math.isfinite(se) for m, se in pairs):
        result.failures.append(f"vacuous: headline {command.headline_name} is not finite")
    else:
        result.std_error = max(se for _, se in pairs)
    return result


# ---------------------------------------------------------------------------
# Headline estimates and vacuity rules


def _crs_vacuous(body: dict) -> str | None:
    return "crs-hardness reports vacuous: true" if body.get("vacuous") else None


def _ocrs_vacuous(body: dict) -> str | None:
    empty = [a["adversary"] for a in body["per_adversary"] if a["qualifying_elements"] == 0]
    return f"qualifying_elements=0 for {', '.join(empty)}" if empty else None


def _coin_adversarial_pooled(body: dict) -> list[dict]:
    return [a["pooled"] for a in body["per_adversary"] if a["adversary"] == "coin-adversarial"]


def _prophet_and_gamblers(body: dict) -> list[dict]:
    # On the hardness event the prophet value and the deterministic policies
    # have zero variance; the randomized gamblers carry the Monte Carlo error.
    return [body["prophet"], *(p["reward"] for p in body["policies"])]


def crs_command(q: int, d: int, c: int, trials: int, threads: int = 2) -> Command:
    return Command(
        ("crs-hardness", "--q", str(q), "--d", str(d), "--c", str(c), "--threads", str(threads)),
        trials, "rank_estimate", lambda b: [b["rank_estimate"]], 1e-4, _crs_vacuous,
    )


def ocrs_command(q: int, d: int, c: int, trials: int) -> Command:
    return Command(
        ("ocrs-bench", "--q", str(q), "--d", str(d), "--c", str(c)),
        trials, "coin-adversarial pooled", _coin_adversarial_pooled, 1e-4, _ocrs_vacuous,
    )


# ---------------------------------------------------------------------------
# Fixed objects each workload builds once (timed in setup_s with the import)


def _crs_fixed():
    return [instances.CrsInstance(5, 5, 2).sigma, instances.CrsInstance(2, 16, 5).sigma]


def _ocrs_fixed():
    instance = instances.CrsInstance(3, 5, 3)
    return schemes.GreedyOcrs(instance.matroid), instance.sigma


def _prophet_fixed():
    params = instances.ProphetParams(256, 4)
    host = matroid.DuplicatedLinearMatroid(2, params.ambient_dim, params.n)
    return host, schemes.gambler_policy_suite(params.level_sizes)


def _partition_fixed():
    bench = verify.PartitionActiveBench()
    return bench.matroid, bench.pairwise_sampler(), matroid.complete_graph(4)


# The four command groups of the paper's experiments, each with the spans it
# must fire.  Trial counts size a call to about 0.15-0.9 s (crs-hardness,
# certify, partition-bench), 2.4 s (ocrs-bench) or 2.5-4.5 s (prophet-*,
# mostly their fixed calibration) on a quiet 2-core machine; per-call seconds
# at seed 1 are in baseline.json.  At 6k trials the worst ocrs-bench CI low
# over 14 seeds was 0.061-0.075 against the 0.05 threshold.
CRS = (crs_command(5, 5, 2, 2048), crs_command(2, 16, 5, 2048))
CRS_LAYERS = {"gf.matmul", "gf.rank", "verify.experiment", "verify.accumulate",
              "verify.chunks", "cli.resolve", "cli.render"}
OCRS = (ocrs_command(3, 5, 3, 6000),)
OCRS_LAYERS = {"gf.basis", "matroid.tracker", "instances.sample_d1", "schemes.ocrs_run",
               "schemes.ocrs_replay", "verify.experiment", "cli.resolve", "cli.render"}
PROPHET = (
    Command(("prophet-hardness", "--kappa", "4"), 20, "prophet and gambler rewards",
            _prophet_and_gamblers, 1.0),
    Command(("prophet-bench", "--kappa", "4"), 80, "reward", lambda b: [b["reward"]], 1.0),
)
PROPHET_LAYERS = {"gf.basis", "matroid.rank", "matroid.tracker", "pifam.sigma_prophet",
                  "pifam.active_set", "instances.sample_prophet", "instances.level_of_label",
                  "schemes.run_policy", "schemes.bucketing", "schemes.calibration",
                  "verify.experiment", "cli.resolve", "cli.render"}
PARTITION = (
    Command(("certify",), 4000, "min_ratio", lambda b: [b["min_ratio"]], 1e-3),
    Command(("partition-bench",), 4000, "graphic.ratio",
            lambda b: [b["graphic"]["ratio"]], 1e-3),
)
PARTITION_LAYERS = {"matroid.rank", "matroid.part_of", "schemes.calibration",
                    "schemes.partition_prophet", "verify.experiment", "verify.accumulate",
                    "verify.intersect", "cli.resolve", "cli.render"}

# Two workloads, each two of the groups: on a shared 2-core machine the speed
# of a fixed Python loop, averaged over 16 s windows, had a quartile spread of
# about 0.15-0.2 of its median, and over 32-48 s windows about 0.1.  The
# benchmark's time budget allows runs that long only for two workloads.  A
# round takes about 3.5 s (crs-ocrs) or 8 s (prophet-partition).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "crs-ocrs",
            CRS + OCRS,
            traced_rounds=2,
            build_fixed=lambda: (_crs_fixed(), _ocrs_fixed()),
            layers=frozenset(CRS_LAYERS | OCRS_LAYERS),
        ),
        Workload(
            "prophet-partition",
            PROPHET + PARTITION,
            traced_rounds=1,
            build_fixed=lambda: (_prophet_fixed(), _partition_fixed()),
            layers=frozenset(PROPHET_LAYERS | PARTITION_LAYERS),
        ),
    )
}

# The acceptance OCRS instance: 15,625 elements need about 94k trials before
# any reaches the 30-occurrence floor, so a few thousand trials must fail.
NEGATIVE_CONTROL = ocrs_command(5, 5, 2, 3000)
