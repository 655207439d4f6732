"""Rational-tangle values and two-bridge criteria for tangle sums and
Montesinos links.

A sum of two rational tangles is rational only if one summand is a
horizontal twist region, i.e. its value is the reciprocal of an integer.
Likewise a Montesinos link Q(A,B,C) of three rational tangles is two-bridge
only if some factor value is the reciprocal of an integer.  Reciprocals of
integers are exactly {1/j : j in Z} together with inf = 1/0; the value 0 is
excluded (a 0 factor splits the link instead).
"""

from .rationals import ExtRational, FrozenValue


def is_reciprocal_of_integer(x):
    """True iff x = 1/j for an integer j, or x = inf (j = 0)."""
    return x.den == 0 or abs(x.num) == 1


class MontesinosLink(FrozenValue):
    """Q(A,B,C): an ordered triple of rational tangle values, stored
    exactly as produced."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        if len(factors) != 3:
            raise ValueError(f"a Montesinos link Q(A,B,C) has three "
                             f"factors, got {len(factors)}")
        if not all(isinstance(f, ExtRational) for f in factors):
            raise TypeError("factors must be ExtRational values")
        object.__setattr__(self, "factors", factors)

    def __str__(self):
        return "Q(" + ",".join(str(f) for f in self.factors) + ")"


def montesinos_is_two_bridge(link):
    """Necessary condition: some factor is the reciprocal of an integer."""
    return any(is_reciprocal_of_integer(f) for f in link.factors)
