"""Helpers shared by the test modules."""

from teralasso.ksum import FactorSet


def scaled(f: FactorSet, c: float) -> FactorSet:
    """The factor set whose Kronecker sum is c times that of ``f``."""
    return FactorSet(f.dims, [c * m for m in f.psi])
