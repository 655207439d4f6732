from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from surgeryforge.lens import LensSpace
from surgeryforge.simpleknot import (SimpleKnot, _orbit, _relative_gradings,
                                     canonical_triple, euler_char,
                                     genus_primitive, knots_with_genus,
                                     star_solutions)

# Brute-force grading oracle: telescope the relative gradings with plain
# Fractions and symmetrize about zero.


def oracle_gradings(p, q, k):
    qi = pow(q % p, -1, p)
    vals = [Fraction(0)]
    for i in range(p - 1):
        diff = Fraction((i * qi) % p - ((i + k) * qi) % p, p)
        vals.append(vals[-1] - diff)
    hi, lo = max(vals), min(vals)
    shift = (hi + lo) / 2
    return sorted(v - shift for v in vals)


def oracle_chi(p, q, k):
    top = max(oracle_gradings(p, q, k))
    chi = Fraction(p, gcd(p, k)) * (1 - 2 * top)
    assert chi.denominator == 1
    return int(chi)


def test_alexander_set_matches_oracle_sweep():
    for p in range(2, 30):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            for k in range(1, p):
                knot = SimpleKnot(p, q, k)
                assert euler_char(knot) == oracle_chi(p, q, k)


def test_genus_primitive_preconditions():
    # a knot that is not primitive has no genus in this convention
    assert genus_primitive(SimpleKnot(6, 1, 2)) is None  # gcd(p,k) > 1
    assert genus_primitive(SimpleKnot(9, 2, 3)) is None


def test_primitive_knots_have_odd_chi():
    # genus_primitive keeps an even-chi branch that no primitive knot has
    # been seen to reach; this pins the observation for p < 40
    for p in range(2, 40):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            for k in range(1, p):
                if gcd(p, k) == 1:
                    knot = SimpleKnot(p, q, k)
                    assert euler_char(knot) % 2 == 1, knot


def test_equivalence_examples():
    assert canonical_triple(31, 6, 5) != canonical_triple(31, 17, 18)
    assert canonical_triple(31, 6, 5) != canonical_triple(32, 7, 5)
    for p, q, k in ((7, 3, 2), (18, 5, 7), (31, 17, 18)):
        assert canonical_triple(p, q, k) == canonical_triple(p, q, p - k)


def oracle_orbit(p, q, k):
    """The breadth-first closure that simpleknot._orbit replaced, verbatim."""
    start = (q % p, k % p)
    seen = {start}
    frontier = [start]
    while frontier:
        qq, kk = frontier.pop()
        qi = pow(qq, -1, p)
        for nxt in ((qq, (-kk) % p), (qi, (qi * kk) % p), (qi, (-qi * kk) % p)):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_orbit_closed_form_matches_search():
    # q and k also range outside 0..p-1: _orbit reduces them itself
    for p in range(2, 41):
        for q in range(-p, 2 * p):
            if gcd(p, q) != 1:
                continue
            for k in range(-p, 2 * p):
                assert _orbit(p, q, k) == oracle_orbit(p, q, k), (p, q, k)


def test_canonical_triple_is_class_invariant():
    assert canonical_triple(32, 23, 13) == canonical_triple(32, 7, 5)
    assert canonical_triple(32, 23, 3) != canonical_triple(32, 7, 5)


def test_telescoping_and_core_knots():
    # gradings close up around the cycle, and the class-1 knots bound disks
    for p in range(2, 61):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            qi = pow(q, -1, p)
            for k in (1, p // 2, p - 1):
                if k == 0:
                    continue
                total = sum((i * qi) % p - ((i + k) * qi) % p
                            for i in range(p))
                assert total == 0, (p, q, k)
            assert euler_char(SimpleKnot(p, q, 1)) == 1
            assert euler_char(SimpleKnot(p, q, p - 1)) == 1


def test_star_solutions_other_examples():
    assert star_solutions(49, 1) == ((18, 19), (30, 31))
    assert star_solutions(49, -1) == ()
    assert star_solutions(67, 1) == ((29, 30), (37, 38))
    assert star_solutions(67, -1) == ()


def test_knots_with_genus():
    hits = knots_with_genus(LensSpace(5, 4), 1)
    assert SimpleKnot(5, 4, 2) in hits


@given(st.integers(2, 80), st.data())
@settings(max_examples=60)
def test_symmetrized_gradings_sum_structure(p, data):
    units = [q for q in range(1, p) if gcd(p, q) == 1]
    q = data.draw(st.sampled_from(units))
    k = data.draw(st.integers(1, p - 1))
    # the relative gradings are symmetric about the midpoint of their range,
    # so the symmetrized multiset has max = -min and is closed under negation
    cs = _relative_gradings(p, q, k)
    assert sorted(max(cs) + min(cs) - c for c in cs) == sorted(cs)
