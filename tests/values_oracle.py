"""The package's value classes as they stood when they were frozen
dataclasses: ExtRational (rationals), LensSpace (lens), MontesinosLink
(tangle), Pow2 (normseq), SimpleKnot (simpleknot), P5Filling (pentangle)
and CensusEntry (families).  Kept verbatim as the reference
for the plain __slots__ classes that replaced them: the same fields after
normalisation, the same errors, equality, hash, str and repr (600 drawn
values of the seven kinds, and 100 drawn lists of census entries sorted)."""

from dataclasses import dataclass
from math import gcd

from surgeryforge.lens import is_lens_label


@dataclass(frozen=True, slots=True)
class ExtRational:
    """A reduced fraction num/den in Qhat.

    Invariants after construction: gcd(num, den) = 1, den >= 0, and den = 0
    only for inf which is stored as 1/0 (slopes are unoriented, so -1/0 is
    the same slope).  Zero is 0/1.
    """

    num: int
    den: int = 1

    def __post_init__(self):
        num, den = self.num, self.den
        if den == 0:
            if num == 0:
                raise ValueError("0/0 is not a slope")
            num = 1
        else:
            if den < 0:
                num, den = -num, -den
            g = gcd(num, den)
            if g > 1:
                num //= g
                den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_infinite(self):
        return self.den == 0

    @property
    def is_integer(self):
        return self.den == 1

    def __str__(self):
        if self.den == 0:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"


@dataclass(frozen=True, slots=True)
class LensSpace:
    """Normalized label (p, q): p >= 0, 0 <= q < p for p >= 2,
    (p, q) = (1, 0) for S^3 and (0, 1) for S^1 x S^2."""

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
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


@dataclass(frozen=True, slots=True)
class MontesinosLink:
    """Q(A,B,C): an ordered triple of rational tangle values, stored
    exactly as produced."""

    factors: tuple

    def __post_init__(self):
        factors = tuple(self.factors)
        if not all(isinstance(f, ExtRational) for f in factors):
            raise TypeError("factors must be ExtRational values")
        object.__setattr__(self, "factors", factors)

    def __str__(self):
        return "Q(" + ",".join(str(f) for f in self.factors) + ")"


@dataclass(frozen=True, slots=True)
class Pow2:
    """The shorthand block 2^[t]."""

    t: int

    def __post_init__(self):
        if self.t < -1:
            raise ValueError(f"2^[{self.t}] is undefined: blocks need t >= -1")

    def __str__(self):
        return f"2^[{self.t}]"


@dataclass(frozen=True, slots=True)
class SimpleKnot:
    p: int
    q: int
    k: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("need p >= 2 (no simple knots in S^3 or S^1xS^2)")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"gcd({self.p},{self.q}) != 1")
        if not 0 < self.k < self.p:
            raise ValueError("need 0 < k < p")

    @property
    def homological_order(self):
        return self.p // gcd(self.p, self.k)

    def __str__(self):
        return f"K({self.p},{self.q},{self.k})"


@dataclass(frozen=True, slots=True)
class P5Filling:
    nw: ExtRational
    ne: ExtRational
    sw: ExtRational
    se: ExtRational

    def corners(self):
        return (self.nw, self.ne, self.sw, self.se)

    def __str__(self):
        return "P(" + ",".join(str(s) for s in self.corners()) + ")"


@dataclass(frozen=True, slots=True, order=True)
class CensusEntry:
    p: int
    q: int
    k: int

    def __str__(self):
        return f"(p,q,k)=({self.p},{self.q},{self.k})"
