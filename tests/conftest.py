"""Fixtures shared by more than one test module."""

import pytest

from freequiver.catalog import sch_quiver
from freequiver.exprs import Add, Atom, FreeMapDef, Inv, Mul


@pytest.fixture
def one_sided_map():
    """A map through left and right pseudo-inverses on the Schur quiver. It
    respects direct sums but not similarity, and its block points break the
    block structure: ift_certificate at X ⊕ Y raises BlockMismatchError."""
    q = sch_quiver()
    x1, x2, x12, x21 = (Atom(a) for a in ("x1", "x2", "x12", "x21"))
    x2_inv = Inv(x2)
    # x12: v -> u and x21: u -> v, so a left inverse of x12 and a right
    # inverse of x21 exist only when u is at least as large as v
    return FreeMapDef(q, q, {
        "x1": Add((x1, Mul((x12, Inv(x12, "left"))))),
        "x2": Mul((Inv(x12, "left"), x12)),
        "x12": Mul((Inv(x21, "right"), x2_inv)),
        "x21": Inv(Mul((x12, x2_inv)), "left"),
    })
