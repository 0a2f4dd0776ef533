"""Per-layer spans for the traced benchmark run, installed from outside the program.

Each wrapper replaces a public function where its caller looks it up: a
method on its class, or a module attribute in the module that calls it
(``verify`` holds its own reference to ``sample_prophet_instance``, so the
wrapper is installed there as well as in ``instances``).

A span is recorded only when a call enters a layer other than the innermost
open span's, so recursion inside a layer (``PackedBasis.add`` calling
``reduce``) is one span.  A span's self time is its duration minus the
duration of its child spans.  Spans are aggregated per thread in memory, as
(calls, self seconds) per layer plus a few counters, and merged when the
run ends; ``crs-hardness`` runs chunks on a thread pool, so every
thread keeps its own stack.
"""

from __future__ import annotations

import functools
import json
import threading
from time import perf_counter

# Layers whose span time is waiting on other threads rather than work.
WAIT_LAYERS = frozenset({"verify.run_chunks"})

EXPERIMENTS = (
    "crs_hardness_gap", "prophet_hardness_gap", "crs_ocrs_balance",
    "prophet_bucketing_benchmark", "rank_one_benchmark",
    "graphic_partition_benchmark", "certify_balance",
)


class _ThreadState:
    __slots__ = ("stack", "spans", "counts")

    def __init__(self):
        self.stack: list[list] = []  # open frames: [layer, child seconds]
        self.spans: dict[str, list] = {}  # layer -> [calls, self seconds]
        self.counts: dict[str, float] = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def span(self, layer: str, fn, hook=None):
        """``fn`` wrapped to record a ``layer`` span; ``hook(state, args, result)``
        updates counters after a recorded call returns."""
        state_of = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state_of()
            stack = st.stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                agg = st.spans.get(layer)
                if agg is None:
                    agg = st.spans[layer] = [0, 0.0]
                agg[0] += 1
                agg[1] += elapsed - frame[1]
            if hook is not None:
                hook(st, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self, pairsel):
        """Wrap every layer entry point of the ``pairsel`` package namespace."""
        for owner, attr, layer, hook in _bindings(pairsel):
            self.patch(owner, attr, self.span(layer, vars(owner)[attr], hook))
        cli, verify = pairsel.cli, pairsel.verify
        self.patch(cli, "json", _JsonShim(json, self.span("cli.render", json.dumps)))
        run_chunks = vars(verify)["run_chunks"]
        chunk_span = functools.partial(self.span, "verify.experiment", hook=_count_chunk)

        def traced_run_chunks(chunk_fn, *args, **kwargs):
            return run_chunks(chunk_span(chunk_fn), *args, **kwargs)

        self.patch(verify, "run_chunks", self.span("verify.run_chunks", traced_run_chunks))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, list], dict[str, float]]:
        """Spans and counters merged over every thread that recorded any."""
        spans: dict[str, list] = {}
        counts: dict[str, float] = {}
        with self._lock:
            for st in self._states:
                for layer, (calls, own) in st.spans.items():
                    agg = spans.setdefault(layer, [0, 0.0])
                    agg[0] += calls
                    agg[1] += own
                for key, value in st.counts.items():
                    counts[key] = counts.get(key, 0) + value
        return spans, counts


class _JsonShim:
    """Stands in for the ``json`` module inside ``pairsel.cli`` so that the
    report rendering call is traced; every other name is the real one."""

    def __init__(self, real, dumps):
        self._real = real
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._real, name)


def _add(st: _ThreadState, key: str, value: float = 1):
    st.counts[key] = st.counts.get(key, 0) + value


def _count_macs(st, args, result):
    a, b = args[0], args[1]
    _add(st, "gf.matmul.macs", a.rows * a.cols * b.cols)


def _count_basis(st, args, result):
    if any(frame[0] == "schemes.run_policy" for frame in st.stack):
        _add(st, "schemes.run_policy.basis_calls")


def _count_accept(st, args, result):
    _add(st, "matroid.tracker.adds")
    if result:
        _add(st, "matroid.tracker.accepted")


def _count_rejections(st, args, result):
    _add(st, "instances.sample_prophet.rejections", result.rejections)


def _count_policy_accepts(st, args, result):
    _add(st, "schemes.run_policy.accepts", len(result[1]))


def _count_chunk(st, args, result):
    _add(st, "verify.chunks")


def _bindings(p):
    gf, matroid, pifam, instances = p.gf, p.matroid, p.pifam, p.instances
    schemes, verify, cli = p.schemes, p.verify, p.cli
    b = [
        (gf.FieldMatrix, "multiply", "gf.matmul", _count_macs),
        (gf.FieldMatrix, "rank", "gf.rank", None),
    ]
    for cls, attrs in ((gf.PackedBasis, ("reduce", "contains", "add")),
                       (gf.ModBasis, ("_reduce", "contains", "add"))):
        b += [(cls, attr, "gf.basis", _count_basis) for attr in attrs]
    for cls in (matroid.DuplicatedLinearMatroid, matroid.SimplePartitionMatroid,
                matroid.GraphicMatroid):
        b += [(cls, attr, "matroid.rank", None)
              for attr in ("rank", "is_independent", "span_contains", "weighted_rank")]
    b.append((matroid.DuplicatedLinearMatroid, "rank_of_vectors", "matroid.rank", None))
    for cls in (matroid._LinearTracker, matroid._PartitionTracker, matroid._GraphicTracker):
        b.append((cls, "would_accept", "matroid.tracker", None))
        b.append((cls, "add_if_independent", "matroid.tracker", _count_accept))
    b += [
        (matroid.SimplePartitionMatroid, "part_of", "matroid.part_of", None),
        (pifam, "sigma_prophet", "pifam.sigma_prophet", None),
        (pifam, "matrix_to_set", "pifam.active_set", None),
        (pifam, "matrix_to_set_from_columns", "pifam.active_set", None),
        (instances, "sample_prophet_instance", "instances.sample_prophet", _count_rejections),
        (verify, "sample_prophet_instance", "instances.sample_prophet", _count_rejections),
        (instances.ProphetParams, "level_of_label", "instances.level_of_label", None),
        (instances.CrsInstance, "sample_d1", "instances.sample_d1", None),
        (schemes.GreedyOcrs, "run", "schemes.ocrs_run", None),
        (schemes.GreedyOcrs, "selection_probability_given_active", "schemes.ocrs_replay", None),
        (schemes, "run_policy", "schemes.run_policy", _count_policy_accepts),
        (schemes, "bucketing_prophet", "schemes.bucketing", None),
        (schemes, "estimate_bucket_opts", "schemes.calibration", None),
        (schemes, "calibrate_threshold", "schemes.calibration", None),
        (schemes, "partition_prophet", "schemes.partition_prophet", None),
        (verify.Accumulator, "add", "verify.accumulate", None),
        (verify.RatioAccumulator, "add", "verify.accumulate", None),
        (cli, "run", "cli.run", None),
        (cli, "resolve_config", "cli.resolve", None),
        (cli, "_jsonable", "cli.render", None),
        (cli, "build_report", "cli.render", None),
    ]
    b += [(verify, name, "verify.experiment", None) for name in EXPERIMENTS]
    b += [(cls, "intersect", "verify.intersect", None)
          for cls in (verify.FGroundSet, verify.FExplicit, verify.FLabelClass, verify.FFlat)]
    return b


# (metric, unit, better): the per-layer metrics in the order they are printed.
PER_LAYER = (
    ("gf.matmul.calls", "count", "lower"),
    ("gf.matmul.self_s", "s", "lower"),
    ("gf.matmul.mac_per_s", "1/s", "higher"),
    ("gf.rank.calls", "count", "lower"),
    ("gf.rank.self_s", "s", "lower"),
    ("gf.basis.calls", "count", "lower"),
    ("gf.basis.self_s", "s", "lower"),
    ("matroid.rank.calls", "count", "lower"),
    ("matroid.rank.self_s", "s", "lower"),
    ("matroid.tracker.calls", "count", "lower"),
    ("matroid.tracker.self_s", "s", "lower"),
    ("matroid.tracker.accept_ratio", "ratio", "higher"),
    ("matroid.part_of.calls", "count", "lower"),
    ("pifam.sigma_prophet.self_s", "s", "lower"),
    ("pifam.active_set.self_s", "s", "lower"),
    ("instances.sample_prophet.calls", "count", "lower"),
    ("instances.sample_prophet.self_s", "s", "lower"),
    ("instances.sample_prophet.accept_ratio", "ratio", "higher"),
    ("instances.level_of_label.calls", "count", "lower"),
    ("instances.level_of_label.self_s", "s", "lower"),
    ("instances.sample_d1.self_s", "s", "lower"),
    ("schemes.ocrs_run.self_s", "s", "lower"),
    ("schemes.ocrs_replay.calls", "count", "lower"),
    ("schemes.ocrs_replay.self_s", "s", "lower"),
    ("schemes.ocrs_replay.per_trial", "count", "lower"),
    ("schemes.run_policy.self_s", "s", "lower"),
    ("schemes.run_policy.basis_calls_per_accept", "count", "lower"),
    ("schemes.bucketing.self_s", "s", "lower"),
    ("schemes.calibration.self_s", "s", "lower"),
    ("schemes.partition_prophet.self_s", "s", "lower"),
    ("verify.experiment.self_s", "s", "lower"),
    ("verify.accumulate.calls", "count", "lower"),
    ("verify.accumulate.self_s", "s", "lower"),
    ("verify.intersect.self_s", "s", "lower"),
    ("verify.chunks", "count", "lower"),
    ("cli.resolve.self_s", "s", "lower"),
    ("cli.render.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: dict, counts: dict, trials: int, overhead_ratio: float) -> dict:
    """Every per-layer metric from merged spans and counters; a layer the
    workload never entered reads 0."""
    calls = {layer: agg[0] for layer, agg in spans.items()}
    own = {layer: agg[1] for layer, agg in spans.items()}
    values = {}
    for name, _unit, _better in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls.get(layer, 0)
        elif stat == "self_s":
            values[name] = own.get(layer, 0.0)
    get = counts.get
    values.update({
        "gf.matmul.mac_per_s": _ratio(get("gf.matmul.macs", 0), own.get("gf.matmul", 0.0)),
        "matroid.tracker.accept_ratio": _ratio(get("matroid.tracker.accepted", 0),
                                               get("matroid.tracker.adds", 0)),
        "instances.sample_prophet.accept_ratio": _ratio(
            calls.get("instances.sample_prophet", 0),
            calls.get("instances.sample_prophet", 0) + get("instances.sample_prophet.rejections", 0)),
        "schemes.ocrs_replay.per_trial": _ratio(calls.get("schemes.ocrs_replay", 0), trials),
        "schemes.run_policy.basis_calls_per_accept": _ratio(
            get("schemes.run_policy.basis_calls", 0), get("schemes.run_policy.accepts", 0)),
        "verify.chunks": get("verify.chunks", 0),
        "trace.overhead_ratio": overhead_ratio,
    })
    return values


def silent_layers(expected, spans: dict, counts: dict) -> list[str]:
    """Expected layers that recorded no call; a counter such as ``verify.chunks`` counts."""
    return sorted(layer for layer in expected
                  if not spans.get(layer, [0])[0] and not counts.get(layer))


def layer_shares(spans: dict) -> dict[str, float]:
    """Each layer's self time as a share of all recorded self time, waits excluded."""
    own = {layer: agg[1] for layer, agg in spans.items() if layer not in WAIT_LAYERS}
    total = sum(own.values())
    return {layer: round(t / total, 4) for layer, t in sorted(own.items(), key=lambda kv: -kv[1])}
