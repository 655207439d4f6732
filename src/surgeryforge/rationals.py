"""Exact extended-rational arithmetic and minus-convention continued fractions.

Slopes on tori, rational-tangle parameters and surgery coefficients all live
in the extended rationals Qhat = Q ∪ {inf}.  Everything here is exact integer
arithmetic; no floating point appears anywhere in this package.

Continued fractions use the minus convention

    [a1, a2, ..., an] = a1 - 1/(a2 - 1/( ... - 1/an))

evaluated right to left by x -> a - 1/x with the Moebius conventions
1/0 = inf, 1/inf = 0 and a - inf = inf.  The empty word evaluates to inf.
Only the final entry of a continued fraction may itself be a rational, a
rational tail as in the word [1, 2, 3/5].
"""

from math import gcd


class FrozenValue:
    """Base of the package's immutable value classes.

    A subclass lists its fields in ``__slots__`` and sets each one once in
    its ``__init__`` through ``object.__setattr__``.  Equality holds only
    between instances of the same class with equal field tuples, and the
    hash is the hash of the field tuple, as for a frozen dataclass.  The
    repr is ``Name(field=value, ...)``.  These are plain classes rather
    than dataclasses because importing ``dataclasses`` also loads
    ``inspect``, ``ast``, ``dis`` and ``tokenize``, a start-up cost that
    every CLI process would pay.

    A value earns a class only when the class normalises or validates its
    input (``ExtRational``, ``LensSpace``, ``SimpleKnot``,
    ``MontesinosLink``, ``Pow2``) or gives a report its printed form
    (``P5Filling``, ``CensusEntry``).  Plain integer data with neither, such
    as a norm sequence, a continued-fraction word or a congruence root
    (k, q), stays a tuple.
    """

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()


class ExtRational(FrozenValue):
    """A reduced fraction num/den in Qhat.

    Invariants after construction: gcd(num, den) = 1, den >= 0, and den = 0
    only for inf which is stored as 1/0 (slopes are unoriented, so -1/0 is
    the same slope).  Zero is 0/1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
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


INF = ExtRational(1, 0)
ZERO = ExtRational(0, 1)


rat = ExtRational  # shorthand


def parse_slope(text):
    """Parse 'p/q', a plain integer, or 'inf' into an ExtRational."""
    s = text.strip()
    if s.lower() in ("inf", "infinity", "1/0"):
        return INF
    try:
        terms = [int(term) for term in s.split("/", 1)]
    except ValueError:
        raise ValueError(f"not a slope: {text!r} (expected p/q, an integer "
                         "or inf)") from None
    return ExtRational(*terms)


def _mobius(x, a, b, c, d):
    # x -> (a x + b)/(c x + d) for an integer matrix with nonzero determinant.
    return ExtRational(a * x.num + b * x.den, c * x.num + d * x.den)


def reciprocal(x):
    """x -> 1/x, with 1/0 = inf and 1/inf = 0."""
    return _mobius(x, 0, 1, 1, 0)


def rot_map(x):
    """The order-3 map x -> 1/(1 - x)."""
    return _mobius(x, 0, 1, -1, 1)


def cf_step(c, x):
    """One minus-convention step for an integer c: c - 1/x."""
    return ExtRational(c * x.num - x.den, x.num)


def cf_eval(coeffs):
    """Evaluate a minus-convention continued fraction.

    coeffs is a sequence of integers whose final entry may instead be an
    ExtRational (a rational tail).  The empty sequence evaluates to inf.
    """
    coeffs = list(coeffs)
    value = INF
    if coeffs and isinstance(coeffs[-1], ExtRational):
        value = coeffs.pop()
    for c in reversed(coeffs):
        if not isinstance(c, int):
            raise ValueError("only the final entry may be non-integral")
        value = cf_step(c, value)
    return value


def parse_cf(text):
    """Parse '[a1,a2,...,an]' into its coefficient tuple: integers, but for
    a final 'p/q' or 'inf', which becomes an ExtRational."""
    bad = ValueError(f"not a continued fraction: {text!r} (expected "
                     "[a1,...,an], integers but for a last p/q or inf)")
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise bad
    body = s[1:-1].strip()
    if not body:
        return ()
    parts = [p.strip() for p in body.split(",")]
    coeffs = []
    try:
        for i, p in enumerate(parts):
            if i == len(parts) - 1 and ("/" in p or p.lower() == "inf"):
                coeffs.append(parse_slope(p))
            else:
                coeffs.append(int(p))
    except ValueError:
        raise bad from None
    return tuple(coeffs)


def format_cf(coeffs):
    """The word '[a1,...,an]' of a coefficient tuple, as parse_cf reads it."""
    return "[" + ",".join(str(c) for c in coeffs) + "]"


def cf_solve_tail(prefix, target_j):
    """The unique r/s with [a1, ..., an, r/s] = [0, j].

    Computed by evaluating [0, -an, ..., -a1, j]; [0, j] itself is -1/j.
    """
    word = [0] + [-a for a in reversed(tuple(prefix))] + [target_j]
    return cf_eval(word)


def cf_expand(x):
    """The expansion of x whose every entry is the ceiling of what remains:
    x = p/q = a - 1/x' with a = ceil(p/q), so every entry after the first is
    at least 2.  inf expands to the empty sequence."""
    coeffs = []
    p, q = x.num, x.den
    while q != 0:
        a = -((-p) // q)  # ceil(p/q)
        coeffs.append(a)
        # x' = q/(a*q - p) > 1 when finite, as 0 <= a*q - p < q
        p, q = q, a * q - p
    return tuple(coeffs)


def cf_expand_norm(x):
    """The unique expansion of x = p/q (p > q >= 1) with all entries >= 2.

    inf expands to the empty sequence.  Finite x <= 1 is rejected: those
    values have no expansion with every coefficient at least 2.
    """
    if not x.is_infinite and x.num <= x.den:
        raise ValueError(f"{x} has no all->=2 expansion (need p/q > 1)")
    return cf_expand(x)
