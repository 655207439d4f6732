import random
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import families_oracle as oracle
import normseq_oracle
from surgeryforge import normseq
from surgeryforge.lens import LensSpace, S3, S1XS2, homeo_oriented
from surgeryforge.normseq import (Pow2, applicable_rewrites, eval_items,
                                  format_items, gofk_exponent_sums,
                                  norm_sequence_of, parse_seq, reduce_seq,
                                  riemenschneider_dual, sequence_kind, to_lens)
from surgeryforge.rationals import cf_eval


def test_parse_and_format():
    items = parse_seq("(3, 2^[4], 5)")
    assert items == (3, Pow2(4), 5)
    assert format_items(items) == "(3,2^[4],5)"
    assert parse_seq("()") == ()


def test_eval_items_blocks_match_literal_expansion():
    for t in range(0, 4):
        for a in range(-2, 6):
            for b in range(-2, 6):
                with_block = eval_items((a, Pow2(t), b))
                literal = cf_eval([a] + [2] * t + [b])
                assert with_block == literal


def test_reduce_examples():
    assert reduce_seq((4, Pow2(0), 3)) == (4, 3)
    assert reduce_seq((3, Pow2(-1), 4)) == (5,)
    assert reduce_seq((1,)) == (1,)  # terminal: names S^3
    assert reduce_seq((0,)) == (0,)  # terminal: names S^1 x S^2
    assert to_lens(reduce_seq((1,))) == S3
    assert to_lens(reduce_seq((0,))) == S1XS2
    assert reduce_seq((5, 3, Pow2(-1))) == (5,)
    assert reduce_seq((4, 3, 2)) == (4, 3, 2)  # already reduced
    # a leading 0 or 1 is reached by reversing the list: these pin the
    # orientation of the result
    assert reduce_seq((1, 5)) == (4,)
    assert reduce_seq((0, 3, 4, 5)) == (5, 4)
    assert reduce_seq((1, 3, Pow2(-1), 4)) == (4,)
    assert reduce_seq((Pow2(-1), 3, 4)) == (4,)
    assert reduce_seq((1, 2, 3)) == (2,)


def test_reduce_kind():
    assert sequence_kind(reduce_seq((4, 3, 2))) == "norm"
    assert sequence_kind(()) == "weak"
    assert sequence_kind((0, 2)) == "weak"
    assert sequence_kind((-1, 3)) == "raw"


def test_reduce_rejects_adjacent_blocks():
    with pytest.raises(ValueError):
        reduce_seq((Pow2(-1), Pow2(-1)))


def test_reduce_terminates_on_every_short_list(monkeypatch):
    # every list of length <= 5 over these items reduces or is refused
    # within a few steps; a rewrite loop fails the cap instead of hanging
    cap = 100
    steps = 0

    def counted(items):
        nonlocal steps
        steps += 1
        if steps > cap:
            pytest.fail(f"no normal form within {cap} steps: {start}")
        return applicable_rewrites(items)

    monkeypatch.setattr(normseq, "applicable_rewrites", counted)
    alphabet = (-1, 0, 1, 2, 3, Pow2(-1), Pow2(0), Pow2(1))
    reduced = refused = 0
    for n in range(6):
        for start in product(alphabet, repeat=n):
            steps = 0
            try:
                got = reduce_seq(start)
            except ValueError:
                refused += 1
                continue
            assert all(isinstance(e, int) for e in got), (start, got)
            assert not applicable_rewrites(got), (start, got)
            reduced += 1
    assert reduced + refused == sum(8 ** n for n in range(6))


def test_blocks_below_minus_one_are_refused():
    # the fusion rules would read 2^[-2] as 2^[-1]
    with pytest.raises(ValueError):
        Pow2(-2)


def _random_raw_items(rng):
    n = rng.randint(1, 6)
    items = []
    for i in range(n):
        if items and not isinstance(items[-1], Pow2) and rng.random() < 0.25:
            items.append(Pow2(rng.randint(-1, 3)))
        else:
            items.append(rng.randint(-1, 7))
    return tuple(items)


def _reduce_random_order(items, rng):
    items = list(items)
    while True:
        rules = applicable_rewrites(items)
        if not rules:
            return tuple(items)
        _, _, lo, hi, new = rng.choice(rules)
        items[lo:hi] = new


def _up_to_reversal(entries):
    return min(tuple(entries), tuple(reversed(entries)))


def test_reduce_confluent_and_lens_preserving():
    rng = random.Random(20240817)
    for _ in range(400):
        items = _random_raw_items(rng)
        canonical = reduce_seq(items)
        # the reduction preserves the oriented lens space
        assert homeo_oriented(to_lens(items), to_lens(canonical)), items
        # any rewrite order reaches the same form up to reversal
        want = _up_to_reversal(canonical)
        for _ in range(8):
            got = _reduce_random_order(items, rng)
            assert _up_to_reversal(got) == want, (items, got, canonical)


def test_to_lens_examples():
    assert to_lens((4, 3, 2)) == LensSpace(18, 5)
    assert homeo_oriented(to_lens((4, 3, 2)), LensSpace(18, 11))
    assert to_lens((2, 2, 3, 5)) == LensSpace(32, 23)
    assert homeo_oriented(to_lens((2, 2, 3, 5)), LensSpace(32, 7))
    assert to_lens(()) == S3
    assert to_lens((0,)) == S1XS2
    assert to_lens((1,)) == S3


def test_norm_sequence_of_round_trip():
    for p, q in ((18, 5), (32, 7), (7, 3), (50, 41), (68, 59)):
        lens = LensSpace(p, q)
        seq = norm_sequence_of(lens)
        assert sequence_kind(seq) == "norm"
        assert to_lens(seq) == lens


# --- Riemenschneider dual -------------------------------------------------


def test_dual_examples():
    assert riemenschneider_dual((2,)) == (2,)
    assert riemenschneider_dual((3,)) == (2, 2)
    for b in range(2, 9):
        assert riemenschneider_dual((2,) * (b - 1)) == (b,)


def test_dual_matches_point_rule_oracle():
    # the row-start dual against the dot-by-dot rule, and its involution
    checked = 0
    for length in range(1, 7):
        for seq in product(range(2, 8), repeat=length):
            dual = riemenschneider_dual(seq)
            assert dual == oracle.riemenschneider_dual(seq), seq
            assert riemenschneider_dual(dual) == seq
            checked += 1
    assert checked == sum(6 ** n for n in range(1, 7))


def _non2(seq):
    return sum(1 for e in seq if e != 2)


@settings(max_examples=300)
@given(st.lists(st.integers(2, 9), min_size=1, max_size=12),
       st.integers(2, 60))
def test_dual_counts_entries_other_than_2(seq, v):
    # the two facts the census seed shapes rest on: a dual gets one entry
    # other than 2 per distinct row start, so 1 + the interior count of a
    # longer sequence, and it ends in one exactly where the sequence ends in
    # a 2; a single entry v has the dual 2^[v-1]
    a = tuple(seq)
    b = riemenschneider_dual(a)
    if len(a) >= 2:
        assert _non2(b) == 1 + _non2(a[1:-1]), (a, b)
        assert (b[0] != 2) == (a[0] == 2) and (b[-1] != 2) == (a[-1] == 2)
    assert riemenschneider_dual((v,)) == (2,) * (v - 1)


def _outcome(fn, arg):
    try:
        return fn(arg), None
    except ValueError as exc:
        return None, str(exc)


def test_dual_rejects_bad_input():
    # () and every short tuple with an entry below 2 raise with one message;
    # the tuples over 2..6 are the dual tests' inputs above
    for length in range(0, 6):
        for seq in product(range(-1, 7), repeat=length):
            if not seq or min(seq) < 2:
                assert _outcome(riemenschneider_dual, seq) == (
                    None, "point rule needs a nonempty all->=2 sequence"), seq


def test_eval_items_matches_guarded_oracle():
    # no block value is 0/0, so dropping the guard changes no value and
    # no input raises
    alphabet = (-1, 0, 1, 2, 3, 5, Pow2(-1), Pow2(0), Pow2(1), Pow2(3))
    checked = 0
    for length in range(0, 5):
        for items in product(alphabet, repeat=length):
            assert eval_items(items) == normseq_oracle.eval_items(items), \
                items
            checked += 1
    assert checked == sum(10 ** n for n in range(0, 5))


# --- exponent sums ---------------------------------------------------------
#
# The one reference: map each pair (a, b) to its reduced sequence via the
# tabulated case chart, then collect a + b - 1 over all pairs whose chart
# sequence matches the target up to reversal.


def _chart_sequence(a, b):
    if a >= 2 and b >= 2:
        return (a, 2, b)
    if a < b:
        a, b = b, a  # reversal of the 3-braid word swaps the exponents
    c = -b
    if a >= 2:
        if b == 1:
            return (a - 1,)
        if b == 0:
            return (a,)
        if b == -1:
            return (a, 3)
        return (a, 3) + (2,) * (c - 1)
    if a == 1:
        if b == 1:
            return (0,)
        if b == 0:
            return (1,)
        if b == -1:
            return (2,)
        return (2,) * c
    if a == 0:
        if b == 0:
            return (0,)
        if b == -1:
            return ()
        return (2,) * (c - 1)
    if a == -1:
        if b == -1:
            return (4,)
        return (4,) + (2,) * (c - 1)
    d = -a
    return (2,) * (d - 1) + (4,) + (2,) * (c - 1)


def _chart_table(span):
    """Chart sequence -> the sums a + b - 1 of its pairs, |a|, |b| <= span."""
    table = {}
    for a, b in product(range(-span, span + 1), repeat=2):
        table.setdefault(_chart_sequence(a, b), set()).add(a + b - 1)
    return table


# A pair with max(|a|, |b|) = m has a chart sequence with an entry of at
# least m - 1 or a length of at least m - 1.  So the pairs up to CHART_SPAN
# give every sum of a sequence whose entries and length are below it: every
# input below has entries up to 40 and length up to 16.
CHART_SPAN = 41
CHART_SUMS = _chart_table(CHART_SPAN)


def _oracle_sums(target):
    target = tuple(target)
    assert max(target, default=0) < CHART_SPAN and len(target) < CHART_SPAN
    return frozenset(CHART_SUMS.get(target, set())
                     | CHART_SUMS.get(target[::-1], set()))


def test_exponent_sums_examples():
    assert gofk_exponent_sums((4, 3, 2, 2, 2)) == frozenset({-1})
    assert gofk_exponent_sums((5, 2, 2)) == frozenset({6})


def test_exponent_sums_match_chart_oracle():
    targets = []
    for r in range(2, 9):
        for s in range(2, 9):
            targets.append((r, 2, s))
            targets.append((r, 3) + (2,) * (s - 1))
            targets.append((2,) * (r - 1) + (4,) + (2,) * (s - 1))
        targets.append((r,))
        targets.append((r, 3))
        targets.append((2,) * (r - 1))
        targets.append((4,) + (2,) * (r - 1))
    targets.extend([(), (0,), (1,)])
    for t in targets:
        assert gofk_exponent_sums(t) == _oracle_sums(t), t


@given(st.lists(st.integers(2, 6), min_size=1, max_size=5))
@settings(max_examples=150)
def test_exponent_sums_match_oracle_random(seq):
    assert gofk_exponent_sums(tuple(seq)) == _oracle_sums(tuple(seq))


def test_exponent_sums_empty_beyond_two_non2_entries():
    # the census generator skips such sequences without asking
    for n in range(3, 7):
        for seq in product(range(2, 8), repeat=n):
            if sum(1 for e in seq if e != 2) > 2:
                assert not gofk_exponent_sums(seq), seq


def test_exponent_sums_requires_reduced():
    with pytest.raises(ValueError):
        gofk_exponent_sums((3, 1, 2))


def _random_sparse_sequences(count, seed=15):
    # up to three entries from 3..40 placed among 2s
    rng = random.Random(seed)
    for _ in range(count):
        seq = [2] * rng.randint(1, 16)
        places = rng.sample(range(len(seq)), rng.randint(0, min(3, len(seq))))
        for i in places:
            seq[i] = rng.randint(3, 40)
        yield tuple(seq)


def test_pattern_rules_match_chart_chain_oracle():
    # the rules on the entries other than 2 against the braid chart, on
    # every short sequence and on long sparse ones
    seqs = [seq for n in range(1, 6)
            for seq in product(range(2, 10), repeat=n)]
    seqs += [(), (0,), (1,)]
    seqs += _random_sparse_sequences(20000)
    for seq in seqs:
        assert gofk_exponent_sums(seq) == _oracle_sums(seq), seq
    for seq in ((-3,), (0, 1), (2, 1), (1, 5)):
        with pytest.raises(ValueError) as exc:
            gofk_exponent_sums(seq)
        assert str(exc.value) == f"{seq} is not reduced"


def test_norm_sequence_of_matches_oracle():
    spaces = [S3, S1XS2] + [LensSpace(p, q) for p in range(2, 100)
                            for q in range(p) if gcd(p, q) == 1]
    for lens in spaces:
        assert norm_sequence_of(lens) == normseq_oracle.norm_sequence_of(
            lens), lens
    with pytest.raises(TypeError):
        norm_sequence_of((5, 2))
