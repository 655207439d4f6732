from itertools import permutations

from surgeryforge.rationals import INF, rat
from surgeryforge.tangle import (MontesinosLink, is_reciprocal_of_integer,
                                 montesinos_is_two_bridge)


def test_reciprocal_of_integer():
    assert is_reciprocal_of_integer(rat(1, 5))
    assert is_reciprocal_of_integer(rat(-1, 7))
    assert is_reciprocal_of_integer(INF)
    assert is_reciprocal_of_integer(rat(1))   # 1 = 1/1
    assert is_reciprocal_of_integer(rat(-1))
    assert not is_reciprocal_of_integer(rat(0))  # the 0-tangle is excluded
    assert not is_reciprocal_of_integer(rat(2, 3))
    assert not is_reciprocal_of_integer(rat(2))


def test_reciprocal_sweep():
    for p in range(-12, 13):
        for q in range(0, 13):
            if (p, q) == (0, 0):
                continue
            from math import gcd
            if q and gcd(abs(p), q) != 1:
                continue
            x = rat(p, q)
            assert is_reciprocal_of_integer(x) == (abs(x.num) <= 1 and
                                                   (x.num != 0 or x.den == 0))


def test_montesinos_two_bridge():
    assert montesinos_is_two_bridge(MontesinosLink((rat(-2), rat(1, 2), rat(7, 3))))
    # the three factors of the tabulated first-case chart at generic values
    link = MontesinosLink((rat(-9, 2), rat(4, 5), rat(3, 7)))
    assert not montesinos_is_two_bridge(link)
    # an integer factor other than +-1 is not a certificate, +-1 is
    assert not montesinos_is_two_bridge(MontesinosLink((rat(5), rat(2, 3), rat(3, 5))))
    assert montesinos_is_two_bridge(MontesinosLink((rat(1), rat(2, 3), rat(3, 5))))


def test_montesinos_permutation_invariance():
    factors = (rat(1, 3), rat(5, 2), rat(7, 4))
    values = {montesinos_is_two_bridge(MontesinosLink(p))
              for p in permutations(factors)}
    assert values == {True}
