"""The package keeps only code that something in it reaches, and every
annotation it writes resolves."""

import ast
import functools
import inspect
import pathlib
import typing

from pairsel import cli, gf, instances, matroid, ocrs_kernel, pifam, schemes, verify

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pairsel"
SPANS = ROOT / "perfbench" / "spans.py"

# Slow-path oracles that only the tests call: each cross-checks a fast path
# of the package (the naive CRS sampler, exact enumeration of the toy prophet
# instance, the chi-square weight test, the element-by-element OCRS balance).
TEST_ORACLES = ("crs_naive_rank_estimate", "exact_prophet_weight_check", "pairwise_weight_test",
                "ocrs_balance")

# Classes that no package code uses but the traced benchmark run wraps by name
# (perfbench/spans.py); they can go once the benchmark drops those bindings.
BENCHMARK_BINDINGS = ("FLabelClass", "FFlat")


def _referenced_names(tree: ast.AST) -> set[str]:
    """Every ``ast.Name`` id and ``ast.Attribute`` attr in tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _unreferenced() -> list[str]:
    """Public top-level functions and classes that no package code names
    outside their own definition."""
    statements = []  # (top-level statement, names it references)
    definitions = []  # (module file, public top-level def)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            statements.append((node, _referenced_names(node)))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                definitions.append((path.name, node))
    return [
        f"{module}::{node.name}"
        for module, node in definitions
        if not any(node.name in names for other, names in statements if other is not node)
    ]


def test_every_public_definition_is_referenced():
    exempt = set(TEST_ORACLES) | set(BENCHMARK_BINDINGS)
    dead = [name for name in _unreferenced() if name.split("::")[1] not in exempt]
    assert dead == []


def test_exemptions_are_still_needed():
    unreferenced = {name.split("::")[1] for name in _unreferenced()}
    assert set(TEST_ORACLES) | set(BENCHMARK_BINDINGS) == unreferenced
    bound = _referenced_names(ast.parse(SPANS.read_text()))
    assert set(BENCHMARK_BINDINGS) <= bound


MODULES = (gf, matroid, pifam, instances, schemes, ocrs_kernel, verify, cli)


def _annotated_callables():
    """Every class, function, method, classmethod, staticmethod and property
    getter defined in the package, with a readable name."""
    for module in MODULES:
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, functools.cached_property):
                        member = member.func
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_type_hints_resolve():
    failures = []
    for name, obj in _annotated_callables():
        try:
            typing.get_type_hints(obj)
        except Exception as exc:
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    assert failures == []
