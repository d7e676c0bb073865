"""Brute-force reference decision for small canonical diagrams.

Independent of the triangle search: enumerate every ordered pair of
lattice points of the ambient cone bounded componentwise by the data, and
test generation of each data point by direct coefficient exhaustion.  Only
usable at desk scale; coordinates above 100 are rejected outright.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import CanonicalDiagram
from .linalg import Vec2
from .solver import CandidatePair

COORD_CAP = 100


@dataclass
class OracleVerdict:
    rank2: bool
    witness: CandidatePair | None
    pairs_enumerated: int


def generated_by(p: Vec2, a: Vec2, b: Vec2) -> bool:
    """Is p = k*a + l*b for nonnegative integers k, l?

    Exhausts k from 0 to the componentwise bound min(p_i // a_i) over the
    positive coordinates of a, testing the remainder against nonnegative
    multiples of b.  Parallel a, b are handled by the same loop.  Intended
    for canonical (first-quadrant) coordinates.
    """
    if p == (0, 0):
        return True
    bounds = [p[i] // a[i] for i in (0, 1) if a[i] > 0]
    k_max = min(bounds) if bounds else 0
    for k in range(k_max + 1):
        q0 = p[0] - k * a[0]
        q1 = p[1] - k * a[1]
        if q0 == 0 and q1 == 0:
            return True
        if q0 * b[1] - q1 * b[0] == 0:
            ell = q0 // b[0] if b[0] != 0 else q1 // b[1]
            if ell >= 0 and ell * b[0] == q0 and ell * b[1] == q1:
                return True
    return False


def brute_force(cd: CanonicalDiagram) -> OracleVerdict:
    """Exhaustive search for a generating pair in a canonical diagram.

    Any generator used with a positive coefficient is componentwise at most
    some data point, so candidates are capped by the componentwise maximum
    of the data; pairs with an unused generator are covered by a == b.
    Raises ValueError for a diagram that is not a CanonicalDiagram.
    """
    if not isinstance(cd, CanonicalDiagram):
        raise ValueError("brute_force needs a CanonicalDiagram: pass the diagram through canonicalize")
    pts = [p for p in cd.points if p != (0, 0)]
    if not pts:
        return OracleVerdict(True, None, 0)
    mx = max(p[0] for p in pts)
    my = max(p[1] for p in pts)
    if mx > COORD_CAP or my > COORD_CAP:
        raise ValueError(
            f"coordinates exceed the brute-force cap of {COORD_CAP}"
        )
    cx, cy = cd.cone_gens[1]
    cands = [
        (x, y)
        for x in range(mx + 1)
        for y in range(my + 1)
        if (x, y) != (0, 0) and x * cy - y * cx >= 0
    ]
    count = 0
    for a in cands:
        for b in cands:
            count += 1
            if all(generated_by(p, a, b) for p in pts):
                return OracleVerdict(True, CandidatePair(a, b), count)
    return OracleVerdict(False, None, count)
