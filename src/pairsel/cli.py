"""Command-line experiment runner.

Ties the generators, schemes, and verifiers into reproducible seeded runs.
Every report embeds the resolved configuration, the seed, and the artifact
version; identical argument vectors produce byte-identical JSON bodies
(the timestamp lives in the header and is excluded from that contract).

Exit codes: 0 all verdicts pass, 1 some verdict failed, 2 usage error or a
rejected parameter, 3 any other error (a crash, never a failed verdict).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import traceback
import typing
from contextlib import contextmanager
from dataclasses import asdict, dataclass, is_dataclass
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__, pifam, verify
from .gf import substream
from .instances import CrsInstance, ProphetParams

SEED_ENV_VAR = "PAIRSEL_SEED"
# Every command takes these flags, and also the ones its runner reads (COMMANDS).
COMMON_FLAGS = ("seed", "output", "format", "config")
CHOICES = {
    "format": ("json", "csv", "text"),
    "construction": ("ordered", "unordered"),
    "distribution": ("pairwise", "product"),
}
HELP = {
    "confidence": "sigma multiplier for intervals",
    "config": "JSON file with defaults; flags override",
    "trace": "line-delimited JSON decision log",
}


@dataclass
class RunConfig:
    command: str
    q: int | None = None
    d: int | None = None
    c: int | None = None
    kappa: int | None = None
    m: int | None = None
    n: int | None = None
    trials: int | None = None
    seed: int = 0
    confidence: float = 3.0
    output: str | None = None
    format: str = "text"
    threads: int = 1
    construction: str = "ordered"
    target: float | None = None
    distribution: str = "pairwise"
    seeds: int = 20
    trace: str | None = None


# RunConfig field name -> the types its value may take.
FIELD_TYPES = {
    name: typing.get_args(hint) or (hint,) for name, hint in typing.get_type_hints(RunConfig).items()
}


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return {"fraction": f"{obj.numerator}/{obj.denominator}", "float": float(obj)}
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(_jsonable(v) for v in obj)
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    return repr(obj)


def _run_pi_test(cfg: RunConfig, rng):
    result = verify.exact_pairwise_check(cfg.construction, cfg.q, cfg.m, cfg.n, cfg.d)
    return result, result.deviation == 0


def _run_crs_hardness(cfg: RunConfig, rng):
    report = verify.crs_hardness_gap(
        cfg.q, cfg.d, cfg.c, cfg.trials, rng, threads=cfg.threads, sigmas=cfg.confidence
    )
    return report, report.vacuous or report.ratio_estimate.ci_high <= float(report.paper_bound)


def _run_prophet_hardness(cfg: RunConfig, rng):
    report = verify.prophet_hardness_gap(cfg.d, cfg.kappa, cfg.trials, rng, sigmas=cfg.confidence)
    best = report.best_policy
    passed = (
        report.prophet.ci_low >= report.prophet_stated_bound
        and all(p.reward.ci_high <= report.gambler_stated_bound * 1.02 for p in report.policies)
        and best.ratio_to_prophet.ci_high <= report.ratio_stated_bound
    )
    return report, passed


def _run_ocrs_bench(cfg: RunConfig, rng):
    with _trace_writer(cfg.trace) as trace:
        report = verify.crs_ocrs_balance(
            cfg.q, cfg.d, cfg.c, cfg.trials, rng, sigmas=cfg.confidence, trace=trace
        )
    threshold = 1.0 / (4.0 * cfg.d)
    return {**asdict(report), "threshold": threshold}, report.worst_min_ci_low() >= threshold


def _run_prophet_bench(cfg: RunConfig, rng):
    with _trace_writer(cfg.trace) as trace:
        report = verify.prophet_bucketing_benchmark(
            cfg.d, cfg.kappa, cfg.trials, rng, sigmas=cfg.confidence, trace=trace
        )
    return report, report.ok


def _run_partition_bench(cfg: RunConfig, rng):
    rank_one = verify.rank_one_benchmark(cfg.trials, rng, sigmas=cfg.confidence)
    graphic = verify.graphic_partition_benchmark(cfg.trials, rng, sigmas=cfg.confidence)
    return {"rank_one": rank_one, "graphic": graphic}, rank_one.ok and graphic.ok


def _run_sigma_props(cfg: RunConfig, rng):
    reports = []
    for s in range(cfg.seeds):
        sub = substream(cfg.seed, "sigma-props", s)
        rep = pifam.check_nested_properties(pifam.sigma_prophet(cfg.d, cfg.kappa, sub), cfg.trials, sub)
        reports.append(
            {"seed_index": s, "ok": rep.ok, "violations": rep.violations, "survival": rep.survival_rows}
        )
    report = {"d": cfg.d, "kappa": cfg.kappa, "seeds": cfg.seeds, "reports": reports}
    return report, all(r["ok"] for r in reports)


def _run_certify(cfg: RunConfig, rng):
    bench = verify.PartitionActiveBench()
    if cfg.distribution == "pairwise":
        sampler, target = bench.pairwise_sampler(), verify.PARTITION_BALANCE_TARGET
    else:
        sampler, target = bench.product_sampler(), verify.PRODUCT_BALANCE_TARGET
    if cfg.target is not None:
        target = cfg.target
    families = bench.families(rng)
    report = verify.certify_balance(
        sampler, bench.matroid, target, families, cfg.trials, rng, sigmas=cfg.confidence
    )
    return report, report.verdict


# Command name -> (runner, the flags the runner reads besides COMMON_FLAGS,
# the command's defaults for flags whose RunConfig default is None).  Each
# prophet trial performs many rank updates over GF(2)^{2d}; the sub-minute
# trial defaults differ accordingly.
COMMANDS = {
    "crs-hardness": (_run_crs_hardness, ("q", "d", "c", "trials", "confidence", "threads"),
                     {"trials": 100_000}),
    "prophet-hardness": (_run_prophet_hardness, ("d", "kappa", "trials", "confidence"),
                         {"trials": 1_000, "kappa": 4}),
    "pi-test": (_run_pi_test, ("q", "d", "m", "n", "construction"),
                {"q": 2, "d": 3, "m": 2, "n": 3}),
    "ocrs-bench": (_run_ocrs_bench, ("q", "d", "c", "trials", "confidence", "trace"),
                   {"trials": 100_000}),
    "prophet-bench": (_run_prophet_bench, ("d", "kappa", "trials", "confidence", "trace"),
                      {"trials": 1_000, "kappa": 4}),
    "partition-bench": (_run_partition_bench, ("trials", "confidence"), {"trials": 100_000}),
    "sigma-props": (_run_sigma_props, ("d", "kappa", "trials", "seeds"),
                    {"trials": 10_000, "kappa": 3}),
    "certify": (_run_certify, ("trials", "confidence", "target", "distribution"),
                {"trials": 100_000}),
}


@contextmanager
def _trace_writer(path: str | None):
    """A callable writing one JSON line per record to ``path``, or None."""
    if not path:
        yield None
        return
    with open(path, "w") as fh:
        yield lambda record: fh.write(json.dumps(record, sort_keys=True) + "\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairsel",
        description="Seeded experiments for pairwise-independent selection on matroids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_runner, keys, _defaults) in COMMANDS.items():
        p = sub.add_parser(name)
        for key in (*keys, *COMMON_FLAGS):
            names = (f"--{key}", "-o") if key == "output" else (f"--{key}",)
            kind = FIELD_TYPES.get(key, (str,))[0]
            p.add_argument(*names, type=kind, choices=CHOICES.get(key), help=HELP.get(key))
    return parser


def _config_value(key: str, value, allowed: tuple[type, ...]):
    """A --config value checked against its RunConfig field type."""
    if value is None and type(None) in allowed:
        return None
    if float in allowed and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    # No field is a bool, and bool is an int subclass: reject it explicitly.
    if isinstance(value, bool) or not isinstance(value, allowed):
        names = " or ".join(t.__name__ for t in allowed if t is not type(None))
        raise ValueError(f"config key {key!r} must be {names}, got {value!r}")
    if key in CHOICES and value not in CHOICES[key]:
        raise ValueError(f"config key {key!r} must be one of {CHOICES[key]}, got {value!r}")
    return value


def resolve_config(argv: list[str]) -> RunConfig:
    ns = build_parser().parse_args(argv)
    _runner, flags, defaults = COMMANDS[ns.command]
    keys = [k for k in (*flags, *COMMON_FLAGS) if k != "config"]
    file_values: dict = {}
    if ns.config:
        try:
            with open(ns.config) as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config file: {exc}") from None
        if not isinstance(file_values, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_values) - set(keys)
        if unknown:
            raise ValueError(f"unknown config keys for {ns.command}: {sorted(unknown)}")
        file_values = {k: _config_value(k, v, FIELD_TYPES[k]) for k, v in file_values.items()}
    # Flags override the config file, which overrides the command's defaults.
    values = dict(defaults)
    for source in (file_values, vars(ns)):
        values.update((k, v) for k, v in source.items() if k in keys and v is not None)
    if "seed" not in values:
        values["seed"] = int(os.environ.get(SEED_ENV_VAR, "0"))
    cfg = RunConfig(command=ns.command, **values)
    if "kappa" in flags and cfg.d is None:
        cfg.d = 2 ** (2 * cfg.kappa)  # the setting of the prophet hardness theorem
    _check_preconditions(cfg)
    return cfg


def _check_preconditions(cfg: RunConfig):
    """Reject a bad parameter before any trial runs; the instance constructors
    own the conditions on (q, d, c) and (d, kappa)."""
    if cfg.command in ("crs-hardness", "ocrs-bench"):
        if cfg.q is None or cfg.d is None or cfg.c is None:
            raise ValueError(f"{cfg.command} requires --q, --d, and --c")
        CrsInstance(cfg.q, cfg.d, cfg.c)
    if cfg.kappa is not None:
        ProphetParams(cfg.d, cfg.kappa)
    if cfg.trials is not None and cfg.trials < 1:
        raise ValueError("precondition violated: trials >= 1")
    if cfg.seeds < 1:
        raise ValueError("precondition violated: seeds >= 1")
    if cfg.threads < 1:
        raise ValueError("precondition violated: threads >= 1")
    if not (math.isfinite(cfg.confidence) and cfg.confidence > 0):
        raise ValueError("precondition violated: confidence positive and finite")
    # A target at or below 0 cannot fail, and a NaN target cannot pass.
    if cfg.target is not None and not (math.isfinite(cfg.target) and cfg.target > 0):
        raise ValueError("precondition violated: target positive and finite")
    for key in ("m", "n"):
        value = getattr(cfg, key)
        if value is not None and value < 1:
            raise ValueError(f"precondition violated: --{key} >= 1")


def _flatten(value, prefix: str = "") -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = []
    if isinstance(value, dict):
        for k in sorted(value):
            rows.extend(_flatten(value[k], f"{prefix}{k}."))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix.rstrip("."), value))
    return rows


def render_text(report: dict) -> str:
    rows = _flatten(report["body"])
    width = max((len(k) for k, _ in rows), default=0)
    head = f"pairsel {report['header']['command']} (seed {report['header']['config']['seed']})"
    return "\n".join([head, "-" * len(head), *(f"{k.ljust(width)}  {v}" for k, v in rows)])


def render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value"])
    for k, v in _flatten(report["body"]):
        writer.writerow([k, v])
    return buf.getvalue()


def build_report(cfg: RunConfig, body: dict) -> dict:
    header = {
        "command": cfg.command,
        "config": _jsonable(asdict(cfg)),
        "seed": cfg.seed,
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    return {"schema": 1, "header": header, "body": body}


def run(argv: list[str]) -> int:
    try:
        cfg = resolve_config(argv)
        result, passed = COMMANDS[cfg.command][0](cfg, substream(cfg.seed, cfg.command))
        body = _jsonable(result)
        body["pass"] = passed
        report = build_report(cfg, body)
        if cfg.format == "json":
            rendered = json.dumps(report, sort_keys=True, indent=2)
        elif cfg.format == "csv":
            rendered = render_csv(report)
        else:
            rendered = render_text(report)
        if cfg.output:
            with open(cfg.output, "w") as fh:
                fh.write(rendered + ("\n" if not rendered.endswith("\n") else ""))
        else:
            print(rendered)
    except SystemExit as exc:  # argparse printed a usage error, or the help
        return 2 if exc.code else 0
    except ValueError as exc:  # a rejected flag, config value or parameter
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash is never reported as a failed verdict
        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0 if passed else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
