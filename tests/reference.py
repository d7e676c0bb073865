"""Reference code the tests check the program against, kept out of the
package because no solve or reduce path runs it."""

from nnirank2.linalg import Vec2, cross2


def in_cone(p: Vec2, g1: Vec2, g2: Vec2) -> bool:
    """Membership of p in the cone spanned by g1, g2 (either orientation)."""
    orient = cross2(g1, g2)
    if orient > 0:
        return cross2(g1, p) >= 0 and cross2(p, g2) >= 0
    if orient < 0:
        return cross2(g2, p) >= 0 and cross2(p, g1) >= 0
    raise ValueError("cone generators must not be parallel")
