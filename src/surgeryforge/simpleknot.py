"""Simple knots K(p,q,k) in lens spaces: equivalence, gradings, Euler
characteristic, genus, and the quadratic congruence picking out surgery
duals of knots that embed in a genus one fiber.

K(p,q,k) is the unique simple (grid number one) knot in L(p,q) in homology
class k times the core of one Heegaard solid torus.  Its chain complex has p
generators and no differentials, so the Euler characteristic comes straight
from the symmetrized generator gradings:

    chi = (p / gcd(p,k)) * (1 - 2 * max A)

where the relative gradings telescope as
A_i - A_{i+1} = (1/p) * (res(i q^-1) - res((i+k) q^-1)), residues in
{0, ..., p-1}, and the set {A_i} is shifted so max = -min.
"""

from math import gcd

from .rationals import FrozenValue


class SimpleKnot(FrozenValue):
    __slots__ = ("p", "q", "k")

    def __init__(self, p, q, k):
        if p < 2:
            raise ValueError("need p >= 2 (no simple knots in S^3 or S^1xS^2)")
        if gcd(p, q) != 1:
            raise ValueError(f"gcd({p},{q}) != 1")
        if not 0 < k < p:
            raise ValueError("need 0 < k < p")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", k)

    @property
    def homological_order(self):
        return self.p // gcd(self.p, self.k)

    def __str__(self):
        return f"K({self.p},{self.q},{self.k})"


def _orbit(p, q, k):
    """Closure of (q mod p, k mod p) under the two equivalence moves:
    k -> -k, and (q, k) -> (q^-1, q^-1 k).  Both moves are involutions and
    they commute, so the closure is {(q, +-k), (q^-1, +-q^-1 k)} mod p."""
    qi = pow(q % p, -1, p)
    return {(q % p, k % p), (q % p, -k % p),
            (qi, qi * k % p), (qi, -qi * k % p)}


def canonical_triple(p, q, k):
    """Smallest (q, k) representative of the equivalence class, as a tuple.
    Two simple knots are equivalent (orientation-preserving, up to
    k -> -k) exactly when their canonical triples are equal."""
    qq, kk = min(_orbit(p, q, k))
    return (p, qq, kk)


def _relative_gradings(p, q, k):
    """Integer numerators c_i with A_i = c_i / p and c_0 = 0."""
    qi = pow(q % p, -1, p)
    cs = [0]
    c = 0
    for i in range(p - 1):
        c -= (i * qi) % p - ((i + k) * qi) % p
        cs.append(c)
    return cs


def euler_char(knot):
    """Exact integer Euler characteristic of the knot."""
    p, q, k = knot.p, knot.q, knot.k
    cs = _relative_gradings(p, q, k)
    spread = max(cs) - min(cs)
    g = gcd(p, k)
    # chi = (p/g) * (1 - spread/p) = (p - spread)/g; must divide exactly
    if (p - spread) % g != 0:
        raise AssertionError(f"non-integral Euler characteristic for {knot}")
    return (p - spread) // g


def genus_primitive(knot):
    """Genus of a primitive simple knot: g = (1 - chi)/2.

    A primitive knot (gcd(p,k) = 1) dual to a knot in S^3 caps off to a
    surface with one boundary component, so chi = 1 - 2g.  A knot that is
    not primitive, or has even chi, has no genus in this convention: None.
    """
    if gcd(knot.p, knot.k) != 1:
        return None
    chi = euler_char(knot)
    if chi % 2 == 0:
        return None
    return (1 - chi) // 2


def star_solutions(p, eps):
    """All raw residues 0 < k < p with k^2 + eps(k+1) = 0 (mod p), as
    pairs (k, q) with the companion class q = -k^2 mod p.

    Solutions come in pairs under k <-> p-k only after passing to the
    equivalence of the named knots.
    """
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    out = []
    for k in range(1, p):
        if (k * k + eps * (k + 1)) % p == 0:
            out.append((k, (-k * k) % p))
    return tuple(out)


def star_canonical(p, solutions):
    """The k of star_solutions(p, eps) folded to (0, p/2] under k <-> p-k."""
    return tuple(sorted({min(k, p - k) for k, _ in solutions}))


def knots_with_genus(lens, genus):
    """All primitive simple knots in the lens space with the given genus.

    Scans k in (0, p/2]; knots that genus_primitive gives no genus (the
    non-primitive ones and those of even Euler characteristic) never match.
    """
    p, q = lens.p, lens.q
    if p < 2:
        return ()
    knots = (SimpleKnot(p, q, k) for k in range(1, p // 2 + 1))
    return tuple(knot for knot in knots if genus_primitive(knot) == genus)
