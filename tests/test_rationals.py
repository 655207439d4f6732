from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pentangle_oracle import corot_map, shift
from surgeryforge.rationals import (INF, ExtRational, cf_eval,
                                    cf_expand_norm, cf_solve_tail,
                                    format_cf, parse_cf, parse_slope, rat,
                                    reciprocal, rot_map)

# Independent oracle: evaluate the minus-convention word with Fractions,
# using None for infinity.


def cf_value_oracle(coeffs):
    value = None
    for c in reversed(list(coeffs)):
        c = Fraction(c) if not isinstance(c, tuple) else Fraction(*c)
        if value is None:
            value = c
        elif value == 0:
            value = None
        else:
            value = c - 1 / value
    return value


def as_oracle(x):
    return None if x.is_infinite else Fraction(x.num, x.den)


def test_eval_examples():
    assert cf_eval([3, 2, 2]) == rat(7, 3)
    for n in range(-6, 7):
        assert cf_eval([n]) == rat(n)
    # hand/oracle evaluation, cross-checked by the inverse pair mod 32
    assert cf_value_oracle([2, 2, 3, 5]) == Fraction(32, 23)
    assert cf_eval([2, 2, 3, 5]) == rat(32, 23)
    assert (7 * 23) % 32 == 1


def test_eval_empty_and_degenerate():
    assert cf_eval([]) == INF
    assert cf_eval([5, 0]) == INF  # a - 1/0 = inf
    assert cf_eval([0]) == rat(0)
    assert cf_eval([2, INF]) == rat(2)  # rational tail


@given(st.lists(st.integers(-8, 8), min_size=1, max_size=6))
def test_eval_matches_oracle(coeffs):
    assert as_oracle(cf_eval(coeffs)) == cf_value_oracle(coeffs)


def test_expand_examples():
    assert cf_expand_norm(rat(7, 3)) == (3, 2, 2)
    assert cf_expand_norm(rat(13, 9)) == (2, 2, 5)
    assert cf_expand_norm(rat(19, 3)) == (7, 2, 2)
    assert cf_expand_norm(INF) == ()
    for bad in (rat(1), rat(2, 3), rat(-5, 2), rat(0)):
        with pytest.raises(ValueError):
            cf_expand_norm(bad)


def test_expand_unique_over_small_words():
    # distinct all->=2 words take distinct values, so the expansion is the
    # unique such word for its value
    seen = {}
    words = [()]
    for _ in range(4):
        words = [w + (a,) for w in words for a in range(2, 8)]
        for w in words:
            v = cf_eval(w)
            assert v not in seen or seen[v] == w
            seen[v] = w


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=6),
       st.lists(st.integers(-6, 6), min_size=1, max_size=6))
def test_rewrite_law(a, b):
    # [a1,...,an + [b1,...]] = [a1,...,an + b1, b2,...]
    lhs = cf_eval(a[:-1] + [shift(cf_eval(b), a[-1])])
    rhs = cf_eval(a[:-1] + [a[-1] + b[0]] + b[1:])
    assert lhs == rhs


def _check_solve_tail(prefix, j):
    tail = cf_solve_tail(prefix, j)
    assert cf_eval(list(prefix) + [tail]) == rat(-1, j)


def test_solve_tail_law_exhaustive_short():
    for j in range(-6, 7):
        if j == 0:
            continue
        _check_solve_tail((), j)
        for a in range(-6, 7):
            _check_solve_tail((a,), j)
            for b in range(-6, 7):
                _check_solve_tail((a, b), j)


@given(st.lists(st.integers(-6, 6), max_size=6),
       st.integers(-6, 6).filter(lambda j: j != 0))
def test_solve_tail_law(prefix, j):
    _check_solve_tail(tuple(prefix), j)


def test_solve_tail_chart_values():
    # the two-bridge chart rows solve these in closed form
    assert cf_solve_tail((), 5) == rat(-1, 5)
    for j in range(-5, 6):
        assert cf_solve_tail((-1, 1), j) == rat(j - 1, 2 * j - 1)
        assert cf_solve_tail((2, 1), j) == rat(2 * j + 1, j + 1)


def test_mobius_examples():
    x = rat(5, 7)
    assert rot_map(rot_map(rot_map(x))) == x
    assert reciprocal(INF) == rat(0)
    y = rat(2, 3)
    assert corot_map(corot_map(corot_map(y))) == y
    assert shift(y, 3) == rat(11, 3)
    assert shift(INF, 3) == INF


def test_mobius_group_laws_sweep():
    slopes = [INF]
    for p in range(-20, 21):
        for q in range(1, 21):
            slopes.append(ExtRational(p, q))
    for s in slopes:
        assert rot_map(rot_map(rot_map(s))) == s
        assert corot_map(corot_map(corot_map(s))) == s
        assert reciprocal(reciprocal(s)) == s
        assert shift(shift(s, 5), -5) == s


def test_normalization_conventions():
    assert ExtRational(-1, 0) == INF  # slopes are unoriented
    assert ExtRational(3, -6) == rat(-1, 2)
    assert ExtRational(0, -4) == rat(0)
    with pytest.raises(ValueError):
        ExtRational(0, 0)


def test_parse_and_format():
    assert parse_slope("7/3") == rat(7, 3)
    assert parse_slope("-2") == rat(-2)
    assert parse_slope("inf") == INF
    assert str(rat(7, 3)) == "7/3"
    assert str(rat(-2)) == "-2"
    assert str(INF) == "inf"
    word = parse_cf("[3,2,2]")
    assert word == (3, 2, 2)
    assert cf_eval(word) == rat(7, 3)
    assert format_cf(word) == "[3,2,2]"
    assert parse_cf("[-1,1,5/7]") == (-1, 1, rat(5, 7))
    assert format_cf(parse_cf("[-1,1,5/7]")) == "[-1,1,5/7]"
    # only the final entry of a word may be non-integral
    for word in ((rat(1, 2), 3), (2, "x")):
        with pytest.raises(ValueError, match="only the final entry"):
            cf_eval(word)
