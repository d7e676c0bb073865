"""Reference code the tests check the program against, kept out of the
package because no solve or reduce path runs it."""

from collections.abc import Sequence

from nnirank2.linalg import Vec2, cross2


def in_cone(p: Vec2, g1: Vec2, g2: Vec2) -> bool:
    """Membership of p in the cone spanned by g1, g2 (either orientation)."""
    orient = cross2(g1, g2)
    if orient > 0:
        return cross2(g1, p) >= 0 and cross2(p, g2) >= 0
    if orient < 0:
        return cross2(g2, p) >= 0 and cross2(p, g1) >= 0
    raise ValueError("cone generators must not be parallel")


def extremes_by_sort(vectors: Sequence[Vec2]) -> tuple[Vec2, Vec2]:
    """Angularly lowest and highest of nonzero plane vectors that lie in an
    open half-plane, by a scan in (squared norm, vector) order in which only
    strictly lower or higher vectors replace an extreme, so parallel ties go
    to the smaller: the scan ``linalg._extremes`` replaced."""
    vs = sorted(vectors, key=lambda p: (p[0] * p[0] + p[1] * p[1], p))
    lo = hi = vs[0]
    for p in vs[1:]:
        if cross2(p, lo) > 0:
            lo = p
        elif cross2(p, hi) < 0:
            hi = p
    return lo, hi
