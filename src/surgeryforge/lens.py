"""Lens space naming, normalization and homeomorphism classification.

Lens spaces here are the closed orientable 3-manifolds with a genus one
Heegaard splitting, so S^3 = L(1,0) and S^1 x S^2 = L(0,1) are included.
L(p,q) is the result of -p/q surgery on the unknot; L(-p,-q) = L(p,q) and
L(p, q + p) = L(p, q), which pins a unique normalized label per oriented
homeomorphism class.

Orientation discipline: every comparison is explicitly oriented or
unoriented.  Oriented homeomorphism L(p,q) ~ L(p,q') holds iff q' = q or
q q' = 1 (mod p); the mirror of L(p,q) is L(p,-q).
"""

from math import gcd

from .rationals import ExtRational, FrozenValue


def is_lens_label(p, q):
    """Whether the integers (p, q) name a lens space: q != 0 when p = 0,
    and gcd(p, q) = 1 when |p| >= 2 (p = +-1 always names S^3)."""
    if p == 0:
        return q != 0
    return -2 < p < 2 or gcd(p, q) == 1


class LensSpace(FrozenValue):
    """Normalized label (p, q): p >= 0, 0 <= q < p for p >= 2,
    (p, q) = (1, 0) for S^3 and (0, 1) for S^1 x S^2."""

    __slots__ = ("p", "q")

    def __init__(self, p, q):
        if p < 0:
            p, q = -p, -q
        if p >= 2:
            q %= p
        if not is_lens_label(p, q):
            raise ValueError(f"L({p},{q}) is not a lens space label")
        if p == 0:
            q = 1  # L(0,1) and L(0,-1) name the same oriented manifold
        elif p == 1:
            q = 0
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __str__(self):
        if self.p == 1:
            return "S3"
        if self.p == 0:
            return "S1xS2"
        return f"L({self.p},{self.q})"


S3 = LensSpace(1, 0)
S1XS2 = LensSpace(0, 1)


def parse_lens(text):
    """Parse 'L(p,q)', 'S3' or 'S1xS2'."""
    s = text.strip()
    if s.upper() == "S3":
        return S3
    if s.replace("^", "").lower() in ("s1xs2", "s1s2"):
        return S1XS2
    if s.startswith("L(") and s.endswith(")"):
        try:
            p, q = (int(term) for term in s[2:-1].split(","))
        except ValueError:
            pass
        else:
            return LensSpace(p, q)
    raise ValueError(f"not a lens space label: {text!r} (expected L(p,q), "
                     "S3 or S1xS2)")


def mirror(lens):
    """Orientation reversal: L(p,q) -> L(p,-q)."""
    return LensSpace(lens.p, -lens.q)


def homeo_oriented(l1, l2):
    """Orientation-preserving homeomorphism: same p and q' = q or qq' = 1 mod p."""
    if l1.p != l2.p:
        return False
    p = l1.p
    if p == 0 or p == 1:
        return True
    return l1.q == l2.q or (l1.q * l2.q) % p == 1


def homeo_unoriented(l1, l2):
    return homeo_oriented(l1, l2) or homeo_oriented(l1, mirror(l2))


def from_surgery(r):
    """The lens space of r-surgery on the unknot: r = -p/q gives L(p,q)."""
    if not isinstance(r, ExtRational):
        raise TypeError("from_surgery expects an ExtRational slope")
    return LensSpace(-r.num, r.den)


def from_fraction(x):
    """The lens space L(p,q) with p/q = x; inf gives S^3, 0 gives S^1 x S^2."""
    return LensSpace(x.num, x.den)
