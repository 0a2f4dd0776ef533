"""Pairwise-independent stochastic selection on matroids: constructions,
hard instances, selection schemes, and their verification harness."""

__version__ = "0.1.0"

from . import gf, instances, matroid, ocrs_kernel, pifam, schemes, verify

__all__ = [
    "gf", "matroid", "pifam", "instances", "schemes", "ocrs_kernel", "verify", "__version__",
]
