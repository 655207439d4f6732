from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from surgeryforge.lens import (S3, S1XS2, LensSpace, from_surgery,
                               homeo_oriented, mirror, parse_lens)
from surgeryforge.rationals import INF, rat


def test_normalize_examples():
    assert LensSpace(-10, -3) == LensSpace(10, 3)
    assert LensSpace(0, 1) == S1XS2
    assert LensSpace(0, -1) == S1XS2
    assert LensSpace(1, 5) == S3
    assert LensSpace(-1, 2) == S3
    with pytest.raises(ValueError):
        LensSpace(10, 4)
    with pytest.raises(ValueError):
        LensSpace(0, 0)


def test_homeo_oriented_examples():
    assert homeo_oriented(LensSpace(18, 5), LensSpace(18, 11))
    assert homeo_oriented(LensSpace(32, 23), LensSpace(32, 7))
    assert not homeo_oriented(LensSpace(5, 1), LensSpace(5, 4))
    assert not homeo_oriented(LensSpace(5, 1), LensSpace(7, 1))


def test_mirror_examples():
    assert mirror(LensSpace(8, 3)) == LensSpace(8, 5)
    assert not homeo_oriented(LensSpace(18, 7), LensSpace(18, 5))
    lens = LensSpace(25, 7)
    assert mirror(mirror(lens)) == lens
    assert mirror(S3) == S3
    assert mirror(S1XS2) == S1XS2


def test_from_surgery():
    assert from_surgery(rat(-7, 3)) == LensSpace(7, 3)
    assert from_surgery(INF) == S3
    assert from_surgery(rat(-13, 9)) == LensSpace(13, 9)
    assert from_surgery(rat(0)) == S1XS2


@given(st.integers(2, 500), st.data())
def test_homeo_oriented_is_an_equivalence(p, data):
    units = [q for q in range(1, p) if gcd(p, q) == 1]
    q1 = data.draw(st.sampled_from(units))
    l1 = LensSpace(p, q1)
    # reflexive
    assert homeo_oriented(l1, l1)
    # the only other oriented-equal label is the inverse class
    q2 = pow(q1, -1, p)
    l2 = LensSpace(p, q2)
    assert homeo_oriented(l1, l2) and homeo_oriented(l2, l1)
    # transitivity across the class
    assert homeo_oriented(l2, LensSpace(p, q1))
    q3 = data.draw(st.sampled_from(units))
    l3 = LensSpace(p, q3)
    if homeo_oriented(l1, l3):
        assert q3 in (q1, q2)


def _norm_words(max_len, lo, hi):
    words = [()]
    for _ in range(max_len):
        words = [w + (a,) for w in words for a in range(lo, hi + 1)]
        yield from words


def test_reversal_gives_oriented_homeomorphic_lens():
    from surgeryforge.normseq import to_lens
    count = 0
    for word in _norm_words(4, 2, 7):
        l1 = to_lens(word)
        l2 = to_lens(tuple(reversed(word)))
        assert homeo_oriented(l1, l2), word
        count += 1
    assert count > 1000


@given(st.lists(st.integers(2, 7), min_size=5, max_size=6))
def test_reversal_longer_words(word):
    from surgeryforge.normseq import to_lens
    assert homeo_oriented(to_lens(word), to_lens(tuple(reversed(word))))


def test_h1_invariance():
    for p, q in ((5, 2), (18, 5), (32, 7), (1, 0), (0, 1)):
        lens = LensSpace(p, q)
        assert mirror(lens).p == lens.p
        assert LensSpace(-p, -q).p == lens.p


def test_parse_lens():
    assert parse_lens("L(18,5)") == LensSpace(18, 5)
    assert parse_lens("S3") == S3
    assert parse_lens("S1xS2") == S1XS2
    assert parse_lens("L(-10,-3)") == LensSpace(10, 3)
