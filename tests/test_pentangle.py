import errno
import multiprocessing
import os
import random
from itertools import product
from types import SimpleNamespace

import pentangle_oracle as oracle
import pytest
from pentangle_oracle import (X_FILLINGS, _is_one_minus_reciprocal,
                              corot_map, m5_to_p5, mirror_sym, p5_to_m5, rot3,
                              rot3_fix_ne, shift, swap_fb, swap_lr, swap_tb)
from surgeryforge import pentangle
from surgeryforge.pentangle import (MIRROR_P3_LISTS, NONHYP_LISTS,
                                    P3_LISTS, ROW_CONSTRAINTS,
                                    P5Filling as F, _KLEIN, _ROWS,
                                    _bits, _pair_masks, _partition,
                                    _simp_masks,
                                    _sweep_chunk, _SweepTables, case_holds,
                                    factors_through_P3, is_nonhyperbolic,
                                    montesinos_presentations, simplifies,
                                    stern_brocot_slopes, two_bridge_necessary,
                                    verify_simplification)
from surgeryforge.rationals import (INF, ZERO, ExtRational, cf_eval, rat,
                                   reciprocal)
from surgeryforge.tangle import (is_reciprocal_of_integer,
                                 montesinos_is_two_bridge)


# the thin slope sets T0, Tinf and Tm1 of the chart rows of x = 0, inf, -1
THIN = {ZERO: is_reciprocal_of_integer, INF: lambda s: s.is_integer,
        rat(-1): _is_one_minus_reciprocal}


def test_m5_p5_translation_is_inverse():
    f = F(rat(3, 2), rat(5), rat(-1), rat(7, 2))
    assert m5_to_p5(p5_to_m5(f, rat(0))) == (f, rat(0))
    m = (rat(2, 3), rat(4), rat(-1, 2), rat(5), rat(7, 3))
    assert p5_to_m5(*m5_to_p5(m)) == m


def test_m5_p5_translation_sweep():
    rng = random.Random(7)
    slopes = stern_brocot_slopes(6)
    for _ in range(300):
        *corners, x = (rng.choice(slopes) for _ in range(5))
        f = F(*corners)
        assert m5_to_p5(p5_to_m5(f, x)) == (f, x)


def test_fifth_coordinate_pairing():
    # chain fillings 0, 1, inf on the fifth cusp become x = -1, 0, inf
    for a5, x in ((rat(0), rat(-1)), (rat(1), rat(0)), (INF, INF)):
        m = (rat(2), rat(3), rat(5), rat(7), a5)
        assert m5_to_p5(m)[1] == x


def test_symmetry_group_laws():
    # the swaps fix the fifth slope x; rot3 moves it by corot_map and the
    # mirror by reciprocal
    f, x = F(rat(2, 3), rat(5), INF, rat(-1, 2)), rat(4)
    for swap in (swap_lr, swap_tb, swap_fb):
        assert swap(swap(f)) == f
    assert rot3(rot3(rot3(f))) == f
    assert corot_map(corot_map(corot_map(x))) == x
    assert rot3_fix_ne(rot3_fix_ne(rot3_fix_ne(f))) == f
    # the mirror squares to the front-back involution
    assert mirror_sym(mirror_sym(f)) == swap_fb(f)
    assert reciprocal(reciprocal(x)) == x


def test_klein_getters_are_the_named_swaps():
    # each _KLEIN getter takes the corners of a filling to the corners of
    # its named swap's image, and the getters form a group of involutions
    for corners in product(stern_brocot_slopes(3), repeat=4):
        f = F(*corners)
        for g, swap in zip(_KLEIN, oracle.KLEIN):
            assert g(f.corners()) == swap(f).corners(), (f, swap)
    t = (0, 1, 2, 3)
    images = {g(t) for g in _KLEIN}
    assert len(images) == 4
    for g in _KLEIN:
        assert g(g(t)) == t
        assert {g(h(t)) for h in _KLEIN} == images


def test_mirror_exchanges_factoring_lists():
    # reciprocating the mirror list of pairing A reproduces the plain list
    # of pairing B, pair by pair
    def recip_set(pairset):
        out = set()
        for (a, b) in pairset:
            ra = ExtRational(a[1], a[0]) if a[0] else INF
            rb = ExtRational(b[1], b[0]) if b[0] else INF
            out.add(tuple(sorted(((ra.num, ra.den), (rb.num, rb.den)))))
        return frozenset(out)

    assert recip_set(MIRROR_P3_LISTS[0]) == P3_LISTS[1]
    assert recip_set(MIRROR_P3_LISTS[1]) == P3_LISTS[0]
    assert recip_set(MIRROR_P3_LISTS[2]) == P3_LISTS[2]
    assert recip_set(NONHYP_LISTS[0]) == NONHYP_LISTS[1]
    assert recip_set(NONHYP_LISTS[2]) == NONHYP_LISTS[2]


def test_condition_lists_match_transcription():
    # hand transcription of the tabulated pair lists, which the library
    # generates from pairing A by rot_map; the generated pairing-C factoring
    # list disagrees with the transcription in exactly one pair, where
    # closure under the order-3 symmetry forces {2,2} over {-2,-2}
    def key(a, b):
        return tuple(sorted(((a.num, a.den), (b.num, b.den))))

    s1 = {key(rat(2), rat(-2)), key(rat(-1), rat(3, 2)),
          key(rat(1, 2), rat(1, 3)), key(rat(2), rat(1, 2)),
          key(rat(-1), rat(-1))}
    s2 = {key(rat(-1), rat(1, 3)), key(rat(1, 2), rat(-2)),
          key(rat(2), rat(3, 2)), key(rat(-1), rat(2)),
          key(rat(1, 2), rat(1, 2))}
    s3_printed = {key(rat(1, 2), rat(3, 2)), key(rat(2), rat(1, 3)),
                  key(rat(-1), rat(-2)), key(rat(1, 2), rat(-1)),
                  key(rat(-2), rat(-2))}
    m1 = {key(rat(-1), rat(3)), key(rat(2), rat(-1, 2)),
          key(rat(1, 2), rat(2, 3)), key(rat(-1), rat(1, 2)),
          key(rat(2), rat(2))}
    m2 = {key(rat(1, 2), rat(-1, 2)), key(rat(-1), rat(2, 3)),
          key(rat(2), rat(3)), key(rat(1, 2), rat(2)),
          key(rat(-1), rat(-1))}
    m3 = {key(rat(2), rat(2, 3)), key(rat(1, 2), rat(3)),
          key(rat(-1), rat(-1, 2)), key(rat(2), rat(-1)),
          key(rat(1, 2), rat(1, 2))}
    n1 = {key(rat(-1), rat(2)), key(rat(1, 2), rat(1, 2))}
    n2 = {key(rat(-1), rat(1, 2)), key(rat(2), rat(2))}
    n3 = {key(rat(1, 2), rat(2)), key(rat(-1), rat(-1))}

    assert P3_LISTS[0] == frozenset(s1)
    assert P3_LISTS[1] == frozenset(s2)
    assert MIRROR_P3_LISTS[0] == frozenset(m1)
    assert MIRROR_P3_LISTS[1] == frozenset(m2)
    assert MIRROR_P3_LISTS[2] == frozenset(m3)
    assert NONHYP_LISTS == (frozenset(n1), frozenset(n2), frozenset(n3))
    diff = P3_LISTS[2] ^ frozenset(s3_printed)
    assert diff == {key(rat(2), rat(2)), key(rat(-2), rat(-2))}


def test_nonhyperbolic_examples():
    assert is_nonhyperbolic(F(rat(0), rat(5, 2), rat(7, 3), rat(9, 4)))
    assert is_nonhyperbolic(F(rat(-1), rat(2), rat(7, 3), rat(9, 4)))
    assert not is_nonhyperbolic(F(rat(5, 2), rat(7, 3), rat(-3), rat(9, 4)))


def test_factors_examples():
    assert factors_through_P3(F(rat(2), rat(-2), rat(7, 3), rat(9, 4))) == "P3"
    assert factors_through_P3(F(rat(-1), rat(3), rat(7, 3), rat(9, 4))) == "mirrorP3"
    assert factors_through_P3(F(rat(5, 2), rat(7, 3), rat(-3), rat(9, 4))) == "no"
    # a tuple matching a plain pair in one slot and a mirror pair in another
    both = F(rat(-1), rat(-1), rat(2, 3), rat(-1))
    assert factors_through_P3(both) == "both"
    assert simplifies(both)


def test_simplifies_reads_the_union_of_the_lists():
    # one pass over the per-pairing union gives the verdict of the
    # non-hyperbolicity and factoring predicates that the report prints
    for corners in product(stern_brocot_slopes(3), repeat=4):
        f = F(*corners)
        assert simplifies(f) == (is_nonhyperbolic(f)
                                 or factors_through_P3(f) != "no"), f


def test_simplifies_invariant_height_4_exhaustive():
    slopes = stern_brocot_slopes(4)
    maps = (swap_lr, swap_tb, swap_fb, rot3, rot3_fix_ne, mirror_sym)
    for corners in product(slopes, repeat=4):
        f = F(*corners)
        s = simplifies(f)
        for g in maps:
            assert simplifies(g(f)) == s, (f, g)


def test_necessary_condition_transports_along_rot3():
    # the order-3 rotation permutes the three distinguished fillings
    # x = 0 -> -1 -> inf -> 0, and the chart rows are closed under it
    slopes = stern_brocot_slopes(3)
    rng = random.Random(101)
    for _ in range(500):
        f = F(*(rng.choice(slopes) for _ in range(4)))
        g = rot3(f)
        for x in X_FILLINGS:
            assert two_bridge_necessary(f, x) == \
                two_bridge_necessary(g, corot_map(x))


def test_necessary_condition_invariant_under_swaps():
    # the three x-preserving involutions fix each necessary condition, since
    # montesinos_presentations ranges over all of them; the sweep's walk of
    # one tuple per orbit rests on this
    fillings = [F(*corners) for corners in product(stern_brocot_slopes(2),
                                                    repeat=4)]
    slopes = stern_brocot_slopes(5)
    rng = random.Random(2301)
    fillings += [F(*(rng.choice(slopes) for _ in range(4)))
                 for _ in range(2000)]
    for f in fillings:
        for x in X_FILLINGS:
            want = two_bridge_necessary(f, x)
            for swap in (swap_lr, swap_tb, swap_fb):
                assert two_bridge_necessary(swap(f), x) == want, (f, swap, x)


def test_mirror_swaps_plain_and_mirror_factoring():
    slopes = stern_brocot_slopes(3)
    swap = {"P3": "mirrorP3", "mirrorP3": "P3", "no": "no", "both": "both"}
    for corners in product(slopes, repeat=4):
        f = F(*corners)
        assert factors_through_P3(mirror_sym(f)) == swap[factors_through_P3(f)]


def test_montesinos_presentation_case1():
    # nw = -1 with x = 0: the west factor evaluates [-1, 1, sw]
    sw, se, ne = rat(5, 7), rat(3, 7), rat(4, 5)
    links = montesinos_presentations(F(rat(-1), ne, sw, se), rat(0))
    first = links[0]
    assert first.factors == (cf_eval([-1, 1, sw]), ne, se)
    # the west factor is a reciprocal integer exactly on the chart tail line
    from surgeryforge.rationals import cf_solve_tail
    for j in range(-4, 5):
        tail = cf_solve_tail((-1, 1), j)
        probe = montesinos_presentations(F(rat(-1), ne, tail, se), rat(0))[0]
        assert is_reciprocal_of_integer(probe.factors[0])


def test_montesinos_presentation_north():
    f = F(rat(4), rat(2, 5), rat(5, 7), rat(3, 7))
    links = montesinos_presentations(f, INF)
    assert links[0].factors == (
        cf_eval([1, rat(2 + 4 * 5, 5)]),  # [1, n + ne]
        cf_eval([0, rat(5, 7)]),
        cf_eval([0, rat(3, 7)]),
    )


def test_montesinos_constraint_gating():
    # nw = 2/3 is neither a reciprocal integer nor an integer, ne = 2/5:
    # no west/east rows fire for x = 0
    f = F(rat(2, 3), rat(2, 5), rat(5, 7), rat(3, 7))
    assert montesinos_presentations(f, rat(0)) == []
    assert not two_bridge_necessary(f, rat(0))


def test_two_bridge_necessary_case1_row():
    # nw = -1 with ne = 1/2: the x = 0 presentation has the factor 1/2
    for sw, se in ((rat(5, 7), rat(9, 4)), (rat(7, 5), rat(-8, 3))):
        assert two_bridge_necessary(F(rat(-1), rat(1, 2), sw, se), rat(0))
    assert not two_bridge_necessary(
        F(rat(5, 2), rat(7, 3), rat(-3), rat(9, 4)), rat(0))


def test_case_symmetry_orbits():
    slopes = stern_brocot_slopes(2)
    rng = random.Random(11)
    fillings = [F(*(rng.choice(slopes) for _ in range(4))) for _ in range(400)]
    pairs_rot3 = [(1, 7), (7, 6), (6, 1), (2, 3), (3, 8), (8, 2)]
    pairs_fixne = [(9, 12), (12, 15), (15, 9), (10, 16), (16, 13), (13, 10)]
    for f in fillings:
        for a, b in pairs_rot3:
            assert case_holds(a, rot3(f)) == case_holds(b, f)
        for a, b in pairs_fixne:
            assert case_holds(a, rot3_fix_ne(f)) == case_holds(b, f)


def test_stern_brocot_enumeration():
    slopes = stern_brocot_slopes(5)
    assert slopes == stern_brocot_slopes(5)  # deterministic
    assert len(slopes) == len(set(slopes)) == 40
    from math import gcd
    expect = {(1, 0)}
    for p in range(-5, 6):
        for q in range(1, 6):
            if gcd(abs(p), q) == 1:
                expect.add((ExtRational(p, q).num, ExtRational(p, q).den))
    assert {(s.num, s.den) for s in slopes} == expect
    assert slopes[0] == INF and slopes[1] == rat(0)


def test_necessary_tuples_have_a_corner_in_the_thin_sets():
    # the lemma of the sweep's walk: a tuple passing x = 0 has a corner in
    # T0 = {inf} u {-1/h}, as every x = 0 row needs nw in T0 and the rows
    # range over the Klein four-group; likewise the integers for x = inf
    # and {inf} u {1-1/m} for x = -1
    fillings = [F(*corners) for corners in product(stern_brocot_slopes(2),
                                                    repeat=4)]
    slopes = stern_brocot_slopes(6)
    rng = random.Random(2401)
    fillings += [F(*(rng.choice(slopes) for _ in range(4)))
                 for _ in range(2000)]
    passed = dict.fromkeys(X_FILLINGS, 0)
    for f in fillings:
        for x in X_FILLINGS:
            if two_bridge_necessary(f, x):
                passed[x] += 1
                assert any(map(THIN[x], f.corners())), (f, x)
    assert all(passed.values())


def kernel_masks(tb, i):
    """(j, k, need, simp) for nw = i in T0 and every ne = j, sw = k, read off
    the counting kernel's pair masks."""
    need = {}
    for js, parts, simp_k, simp_base in _pair_masks(tb, i, tb.full):
        for j in _bits(js):
            assert (simp_k, simp_base) == _simp_masks(tb, i, j)
            for cand, c, rows in parts:
                for k in _bits(cand):
                    assert (j, k) not in need  # groups and cells are disjoint
                    need[j, k] = c & rows[k]
                    assert need[j, k]          # and hold no empty need
    for j in range(tb.n):
        simp_k, simp_base = _simp_masks(tb, i, j)
        for k in range(tb.n):
            simp = tb.full if (simp_k >> k) & 1 else simp_base | tb.ga[k]
            yield j, k, need.get((j, k), 0), simp


def test_mask_engine_matches_object_predicates():
    slopes = stern_brocot_slopes(2)
    tb = _SweepTables(slopes)
    n = len(slopes)
    for i in tb.walk:
        for j, k, need, simp in kernel_masks(tb, i):
            for se in range(n):
                f = F(slopes[i], slopes[j], slopes[k], slopes[se])
                want_need = all(two_bridge_necessary(f, x) for x in X_FILLINGS)
                assert bool((need >> se) & 1) == want_need, f
                if want_need:
                    assert bool((simp >> se) & 1) == simplifies(f), f


def test_mask_engine_matches_object_predicates_sampled():
    slopes = stern_brocot_slopes(4)
    tb = _SweepTables(slopes)
    n = len(slopes)
    needs = {(i, j, k): need for i in tb.walk
             for j, k, need, _ in kernel_masks(tb, i)}
    rng = random.Random(23)
    for _ in range(600):
        i = rng.choice(tb.walk)
        j, k, se = (rng.randrange(n) for _ in range(3))
        f = F(slopes[i], slopes[j], slopes[k], slopes[se])
        want = all(two_bridge_necessary(f, x) for x in X_FILLINGS)
        assert bool((needs[i, j, k] >> se) & 1) == want


def sweep(tb):
    """The counting kernel over every walked nw corner, in one chunk, with
    its counterexamples sorted."""
    necessary, simplified, ces = _sweep_chunk(tb, tb.walk)
    return necessary, simplified, sorted(ces)


MIXED_CELL_PATCHES = [("P3_LISTS",), ("NONHYP_LISTS",),
                      ("MIRROR_P3_LISTS", "_TRIVIAL")]
EVERY_LIST = ("P3_LISTS", "MIRROR_P3_LISTS", "_TRIVIAL", "NONHYP_LISTS")


def assert_sweeps_match_oracle(bounds):
    """At each bound the whole sweep reports what the per-triple oracle
    reports, and counts each necessary tuple as simplified or as a
    counterexample.  Returns the sweep at the last bound."""
    for bound in bounds:
        slopes = stern_brocot_slopes(bound)
        got = sweep(_SweepTables(slopes))
        assert got == oracle._sweep_chunk((slopes, 0, len(slopes)))[1:], bound
        assert got[0] == got[1] + len(got[2]), bound
    return got


def test_kernel_matches_oracle_bounds_2_to_8():
    # with the lists as they stand, every necessary tuple simplifies
    necessary, simplified, ces = assert_sweeps_match_oracle(range(2, 9))
    assert necessary == simplified > 0 and not ces


@pytest.mark.parametrize("names", MIXED_CELL_PATCHES + [EVERY_LIST])
def test_classes_keep_simplification_rows_apart(monkeypatch, names):
    # a class holds ne corners with equal simplification rows (triv, gb, gc
    # and their bit of ga[nw]) as well as equal parts: one that mixed them
    # would count the tuples of some members with another's rows, which
    # shows only when the lists are patched
    empty_lists(monkeypatch, *names)
    necessary, simplified, ces = assert_sweeps_match_oracle(range(2, 9))
    assert ces
    assert simplified > 0 or names == EVERY_LIST


@pytest.mark.parametrize("names", MIXED_CELL_PATCHES)
def test_counterexamples_in_mixed_cells(monkeypatch, names):
    # with only part of the simplification lists emptied, cells hold both
    # simplified tuples and counterexamples, and each counterexample is one
    # by the object predicates: necessary for every x-filling, and neither
    # non-hyperbolic nor factoring through a listed pair
    empty_lists(monkeypatch, *names)
    rng = random.Random(29)
    for bound in range(2, 7):
        slopes = stern_brocot_slopes(bound)
        necessary, simplified, ces = sweep(_SweepTables(slopes))
        assert necessary == simplified + len(ces), bound
        for tup in rng.sample(ces, min(len(ces), 40)):
            f = F(*(slopes[i] for i in tup))
            assert all(two_bridge_necessary(f, x) for x in X_FILLINGS), f
            assert not simplifies(f), f
    assert simplified > 0 and ces


def assert_chunks_match_oracle(bound, worker_counts=(1, 2, 3, 7, 128)):
    """Each worker's chunk, the walked nw corners dealt to it, reports what
    the least-corner oracle reports for those corners.  Up to bound 8 the
    chunks together report the per-triple oracle's sweep over every tuple.
    Returns the counterexamples the chunks report."""
    slopes = stern_brocot_slopes(bound)
    tb = _SweepTables(slopes)
    assert tb.walk == [i for i in range(tb.n) if tb.in0[i]]
    whole = None
    if bound <= 8:
        necessary, simplified, ces = oracle._sweep_chunk((slopes, 0, tb.n))[1:]
        whole = necessary, simplified, len(ces), set(ces)
    by_corner = {i: oracle.least_corner_chunk(tb, [i]) for i in tb.walk}
    for workers in worker_counts:
        dealt = _partition(tb.walk, workers)
        assert len(dealt) == min(workers, len(tb.walk))
        assert sorted(i for corners in dealt for i in corners) == tb.walk
        chunks = []
        for corners in dealt:
            necessary, simplified, ces = _sweep_chunk(tb, corners)
            chunks.append((necessary, simplified, len(ces), ces))
            want = [by_corner[i] for i in corners]
            assert chunks[-1] == (
                sum(w[0] for w in want), sum(w[1] for w in want),
                sum(len(w[2]) for w in want),
                set().union(*(w[2] for w in want))), (workers, corners)
        union = tuple(sum(chunk[x] for chunk in chunks) for x in range(3))
        union += (set().union(*(c[3] for c in chunks)),)
        assert whole is None or union == whole, workers
    return union[3]


def test_kernel_matches_visit_oracle_by_chunk():
    # the walk ranges that pool workers sweep, at a bound above the range
    # of the per-triple oracle
    assert_chunks_match_oracle(10)


@pytest.mark.parametrize("names", MIXED_CELL_PATCHES + [EVERY_LIST])
def test_chunks_match_least_corner_oracle_with_counterexamples(monkeypatch,
                                                              names):
    # with lists emptied, cells hold counterexamples, which each chunk
    # reports with their orbit images
    empty_lists(monkeypatch, *names)
    for bound in range(2, 7):
        ces = assert_chunks_match_oracle(bound)
    assert ces
    assert_chunks_match_oracle(10, (3,))


def oracle_pair_counts(slopes):
    """Per (nw, ne) pair, the per-triple oracle's (necessary, simplified,
    bad) over every sw corner, bad the set of (sw, se) corners of the
    pair's counterexamples."""
    otb = oracle._SweepTables(slopes)
    pairs = {}
    for i, j in product(range(otb.n), repeat=2):
        necessary = simplified = 0
        bad = set()
        for k in range(otb.n):
            need = oracle._necessary_masks(otb, i, j, k)
            good = need & oracle._simplifies_mask(otb, i, j, k)
            necessary += need.bit_count()
            simplified += good.bit_count()
            bad.update((k, se) for se in _bits(need & ~good))
        pairs[i, j] = necessary, simplified, bad
    return pairs


@pytest.mark.parametrize("names", [()] + MIXED_CELL_PATCHES)
def test_pair_counts_symmetric_under_swap_lr(monkeypatch, names):
    # swap_lr fixes the necessary conditions and the simplification lists,
    # so the pair (j, i) has the counts of (i, j) and the transposed
    # counterexamples: one of the three involutions of the kernel's walk
    empty_lists(monkeypatch, *names)
    for bound in range(2, 7):
        pairs = oracle_pair_counts(stern_brocot_slopes(bound))
        for (i, j), (nec, simp, bad) in pairs.items():
            nec_t, simp_t, bad_t = pairs[j, i]
            assert (nec, simp) == (nec_t, simp_t), (bound, i, j)
            assert bad == {(se, k) for k, se in bad_t}, (bound, i, j)
    assert any(bad for _, _, bad in pairs.values()) == bool(names)


def test_each_distinct_part_counted_once_per_chunk(monkeypatch):
    # _cell_counts runs once per distinct (simp_k, simp_base, cand, c, rows)
    # over the parts of every walked nw corner, however many ne groups and
    # nw corners share it.  The walk of nw over T0 alone, with every corner
    # at or after nw, builds fewer: 322 distinct parts, against 667 for the
    # walk over every nw group with ne >= nw.  _pair_masks yields once per
    # class of ne groups that give a nw corner the same parts (twice where
    # Vinf[nw] splits the class): 278 yields, where one per (nw, ne group)
    # step gave 714
    slopes = stern_brocot_slopes(10)
    tb = _SweepTables(slopes)
    yields = [(simp_k, simp_base, parts) for i in tb.walk
              for _, parts, simp_k, simp_base in _pair_masks(
                  tb, i, tb.m0 >> i << i | tb.off0)]
    keys = {(simp_k, simp_base, cand, c, rows is tb.fulls)
            for simp_k, simp_base, parts in yields
            for cand, c, rows in parts}
    calls = []
    cell_counts = pentangle._cell_counts

    def counting(*args):
        calls.append(args)
        return cell_counts(*args)

    monkeypatch.setattr(pentangle, "_cell_counts", counting)
    assert _sweep_chunk(tb, tb.walk) == oracle.least_corner_chunk(tb, tb.walk)
    assert len(calls) == len(keys) == 322
    assert len(yields) == 278


def test_ne_classes_keep_every_needed_ne_corner():
    # per walked nw corner the classes' ne masks are disjoint, lie in after,
    # and together hold exactly the ne corners with a need at or after nw
    tb = _SweepTables(stern_brocot_slopes(10))
    for i in tb.walk:
        after = tb.m0 >> i << i | tb.off0
        merged = 0
        for js, _, _, _ in _pair_masks(tb, i, after):
            assert not js & merged and not js & ~after, i
            merged |= js
        needed = 0
        for j, parts, _, _ in oracle._visit_pair_masks(tb, i):
            if (after >> j) & 1 and any(
                    c & rows[k] & after for cand, c, rows in parts
                    for k in _bits(cand & after)):
                needed |= 1 << j
        assert merged == needed, i


def _ne_key(tb, j):
    return tb.in0[j], tb.ininf[j], tb.inm1[j], tb.vm1[j]


def ne_group_members(tb):
    """The members of each of the library's ne groups, in increasing order."""
    return [list(_bits(group[0])) for group in tb.ne_groups]


def test_ne_groups_partition_the_slopes():
    # the ne groups are disjoint, cover the slopes, share the key of what
    # _pair_masks reads of an ne corner for nw in T0, and leave out no
    # corner that could join one
    slopes = stern_brocot_slopes(10)
    tb = _SweepTables(slopes)
    alone = [tb.triv[j] or tb.ga[j] or tb.gb[j] or tb.gc[j]
             for j in range(tb.n)]
    groups = ne_group_members(tb)
    assert (tb.n, len(tb.walk), len(groups)) == (128, 21, 39)
    assert sorted(j for g in groups for j in g) == list(range(tb.n))
    keys = []
    for g in groups:
        if len(g) > 1:
            assert not any(alone[j] for j in g), g
            assert len({_ne_key(tb, j) for j in g}) == 1, g
        if not alone[g[0]]:
            keys.append(_ne_key(tb, g[0]))
    assert len(keys) == len(set(keys))


def test_grouped_ne_corners_expand_counterexamples(monkeypatch):
    # with nothing simplifying, a group of several ne corners yields
    # counterexamples, which must be expanded over every member, and so do
    # walked tuples with c = 1, 2 and 3 corners equal to nw, which stand for
    # 4 / c tuples of their orbit.  No tuple with four equal corners passes,
    # as no slope lies in all three thin sets
    empty_lists(monkeypatch, *EVERY_LIST)
    tb = _SweepTables(stern_brocot_slopes(5))
    ces = sweep(tb)[2]
    ne_bad = {ce[1] for ce in ces}
    assert any(len(g) > 1 and ne_bad.issuperset(g)
               for g in ne_group_members(tb))
    rank = {s: r for r, s in enumerate(sorted(
        range(tb.n), key=lambda s: (not tb.in0[s], s)))}
    walked = [ce for ce in ces if min(ce, key=rank.get) == ce[0]]
    assert {ce.count(ce[0]) for ce in walked} == {1, 2, 3}
    assert not tb.m0 & tb.minf & tb.mm1
    assert_chunks_match_oracle(5, (1, 3, 7))


def single_out_a_corner(monkeypatch, pairing):
    """With every list emptied, make the last member a of the widest ne
    group at bound 5 trivial (pairing None), or put it on a pair with the
    slope 1 in one pairing, which fills its row of ga, gb or gc, in the
    library and the oracle; return a."""
    empty_lists(monkeypatch, *EVERY_LIST)
    slopes = stern_brocot_slopes(5)
    a = max(ne_group_members(_SweepTables(slopes)), key=len)[-1]
    u, v = slopes[a], slopes[2]
    if pairing is None:
        name, value = "_TRIVIAL", frozenset({(u.num, u.den)})
    else:
        lists = [frozenset()] * 3
        lists[pairing] = frozenset({pentangle._key(u, v)})
        name, value = "P3_LISTS", tuple(lists)
    for module in (pentangle, oracle):
        monkeypatch.setattr(module, name, value)
    reunite_simplifying(monkeypatch)
    return a


@pytest.mark.parametrize("pairing", [None, 0, 1, 2])
def test_ne_corner_on_a_simplification_pair_stands_alone(monkeypatch,
                                                         pairing):
    # the singled-out corner's tuples then simplify unlike the rest of its
    # group, so it must stand alone
    a = single_out_a_corner(monkeypatch, pairing)
    assert [a] in ne_group_members(_SweepTables(stern_brocot_slopes(5)))
    assert_chunks_match_oracle(5, (1, 3))


@pytest.mark.parametrize("pairing", ["unpatched", None, 0, 1, 2])
def test_ne_groups_match_the_oracle_grouping(monkeypatch, pairing):
    # the groups of one key (ident, ga, Vm1) are the groups of the grouping
    # that set every corner on a simplification pair apart, with the lists
    # as they stand and with a corner singled out as above
    if pairing != "unpatched":
        single_out_a_corner(monkeypatch, pairing)
    for bound in range(2, 31):
        tb = _SweepTables(stern_brocot_slopes(bound))
        assert ({frozenset(g) for g in ne_group_members(tb)}
                == {frozenset(g) for g in oracle.corner_groups(
                    tb, range(tb.n))}), bound


def test_pair_rows_off_the_thin_set_lie_in_its_mask():
    # a pair row of a slope outside its thin set has bits only on that set:
    # the ne groups take Vm1[ne] as the part of Mm1 where xm1 is full, and
    # near(off0) is built from the rows of Tinf alone
    for bound in range(2, 31):
        tb = _SweepTables(stern_brocot_slopes(bound))
        for rows, thin, mask in ((tb.v0, tb.in0, tb.m0),
                                 (tb.vinf, tb.ininf, tb.minf),
                                 (tb.vm1, tb.inm1, tb.mm1)):
            for row, inside in zip(rows, thin):
                assert inside or not row & ~mask, bound


def test_near_masks_of_the_walk():
    # the tables seed near(after) and near(after & M0) for every walked nw
    # corner from suffix unions over the walk and near(off0), built over
    # Tinf alone; each is the union of Vinf[s] over s in the mask
    for bound in range(2, 21):
        tb = _SweepTables(stern_brocot_slopes(bound))
        for i in tb.walk:
            after = tb.m0 >> i << i | tb.off0
            for mask in (after, after & tb.m0):
                union = 0
                for s in _bits(mask):
                    union |= tb.vinf[s]
                assert tb._near[mask] == union, (bound, i)


def test_pair_count_transposes():
    # the sum over k in a of |b & Vinf[k]| counted from either side
    tb = _SweepTables(stern_brocot_slopes(6))
    rng = random.Random(5)
    for _ in range(200):
        a = rng.getrandbits(tb.n)
        b = rng.getrandbits(tb.n) & rng.getrandbits(tb.n)
        want = sum((b & tb.vinf[k]).bit_count() for k in _bits(a))
        assert pentangle._pair_count(tb.vinf, a, b) == want
        assert pentangle._pair_count(tb.vinf, b, a) == want


def test_kernel_masks_match_oracle_exhaustive_bound_5():
    # every (nw, ne, sw) with a nonzero oracle need mask is a candidate of
    # the thin-set kernel, with the same need and simplification masks
    slopes = stern_brocot_slopes(5)
    tb = _SweepTables(slopes)
    otb = oracle._SweepTables(slopes)
    for i in tb.walk:
        for j, k, need, simp in kernel_masks(tb, i):
            assert need == oracle._necessary_masks(otb, i, j, k), (i, j, k)
            assert simp == oracle._simplifies_mask(otb, i, j, k), (i, j, k)


def test_thin_set_identities():
    # five of the oracle's eight per-slope lists repeat the three thin sets;
    # the x = 0 thin set is the reciprocal-integer test itself
    for bound in range(2, 21):
        for s in stern_brocot_slopes(bound):
            tinf = s.is_integer
            tm1 = _is_one_minus_reciprocal(s)
            assert (s.den == 1) == tinf, s
            assert is_reciprocal_of_integer(cf_eval([1, s])) == tm1, s
            assert is_reciprocal_of_integer(shift(s, -1)) == tm1, s


def test_tables_match_oracle_tables():
    for bound in range(2, 11):
        slopes = stern_brocot_slopes(bound)
        tb = _SweepTables(slopes)
        otb = oracle._SweepTables(slopes)
        assert (tb.m0, tb.minf, tb.mm1) == (otb.c0_mask, otb.cinf_mask,
                                            otb.cm1_mask)
        assert tb.triv_mask == otb.triv_mask
        assert tb.v0 == [r | c for r, c in zip(otb.t0, otb.t0T)]
        assert tb.vinf == [r | c for r, c in zip(otb.tinf, otb.tinfT)]
        assert tb.vm1 == [r | c for r, c in zip(otb.tm1, otb.tm1T)]
        assert (tb.ga, tb.gb, tb.gc) == (otb.ga, otb.gb, otb.gc)


def test_solved_pair_rows_match_scanned_rows():
    # the rows solved from the determinant-1 chart-row matrices are the rows
    # a scan of every slope against every thin slope finds
    for bound in range(2, 41):
        slopes = stern_brocot_slopes(bound)
        tb = _SweepTables(slopes)
        for rows, thin, (_, param, pair, factors) in zip(
                (tb.v0, tb.vinf, tb.vm1), (tb.in0, tb.ininf, tb.inm1),
                _ROWS.values()):
            matrix = dict(factors)[pair]
            assert rows == oracle.scan_pair_rows(
                slopes, thin, lambda s: matrix(param(s))), bound


def test_row_parameters_solve_the_gates():
    # each parameter is the h, n or m whose word [0, h], [n] or [1, m] is
    # the gate slope, and it is given exactly on the thin set
    words = {ZERO: lambda h: [0, h], INF: lambda n: [n],
             rat(-1): lambda m: [1, m]}
    for s in stern_brocot_slopes(20):
        for x, (_, param, _, _) in _ROWS.items():
            h = param(s)
            assert (h is not None) == THIN[x](s), (s, x)
            assert h is None or cf_eval(words[x](h)) == s, (s, x)


def test_row_matrices_have_determinant_one():
    # the pair-row solver and the presentations' Moebius maps rely on it
    for _, _, _, factors in _ROWS.values():
        for _, matrix in factors:
            for h in range(-50, 51):
                a, b, c, d = matrix(h)
                assert a * d - b * c == 1, (matrix, h)


def test_rows_match_chart_words_exhaustive_height_2():
    # the matrix table against the rows as continued-fraction words: every
    # presentation, necessary condition and case constraint of every
    # height-2 filling
    for corners in product(stern_brocot_slopes(2), repeat=4):
        f = F(*corners)
        for x in X_FILLINGS:
            want = oracle.montesinos_presentations(f, x)
            assert montesinos_presentations(f, x) == want, (f, x)
            assert two_bridge_necessary(f, x) == any(
                map(montesinos_is_two_bridge, want)), (f, x)
        for name, holds in ROW_CONSTRAINTS.items():
            assert holds(f) == oracle.ROW_CONSTRAINTS[name](f), (f, name)


def empty_lists(monkeypatch, *names):
    """Empty the named simplification lists in the library and the oracle."""
    for name in names:
        empty = frozenset() if name == "_TRIVIAL" else (frozenset(),) * 3
        for module in (pentangle, oracle):
            monkeypatch.setattr(module, name, empty)
    reunite_simplifying(monkeypatch)


def reunite_simplifying(monkeypatch):
    """Rebuild the library's per-pairing union of the condition lists from
    the lists as patched."""
    monkeypatch.setattr(pentangle, "_SIMPLIFYING", tuple(map(
        frozenset.union, pentangle.NONHYP_LISTS, pentangle.P3_LISTS,
        pentangle.MIRROR_P3_LISTS)))


def test_counterexamples_reported_when_nothing_simplifies(monkeypatch):
    # empty simplification lists make every tuple passing the necessary
    # conditions a counterexample, which real sweeps never produce
    empty_lists(monkeypatch, *EVERY_LIST)
    slopes = stern_brocot_slopes(3)
    got = sweep(_SweepTables(slopes))
    want = oracle._sweep_chunk((slopes, 0, len(slopes)))
    assert got == want[1:]
    assert got[1] == 0 and len(got[2]) == got[0] > 0
    named = tuple(tuple(slopes[x] for x in ce) for ce in want[3])
    # chunks report the orbit images of their counterexamples, whose nw
    # corners may lie outside the walk
    for workers in (1, 2, 3, 7):
        assert verify_with_workers(monkeypatch, 3, workers)[1] == named


def test_verify_simplification_small_bounds():
    r2, ces = verify_simplification(2)
    assert ces == ()
    assert r2["tuples_checked"] == r2["slope_count"] ** 4
    assert r2["necessary_all_three"] == r2["simplified"] > 0
    r3, ces = verify_simplification(3)
    assert ces == ()
    assert r3["necessary_all_three"] == r3["simplified"]


@pytest.mark.parametrize("bound, necessary", [(30, 95_850_992),
                                              (50, 742_110_912)])
def test_necessary_tuples_pinned(bound, necessary):
    # the counts every kernel generation has reported at these bounds
    results, ces = verify_simplification(bound)
    assert ces == ()
    assert results["necessary_all_three"] == results["simplified"] == necessary


def verify_with_workers(monkeypatch, bound, workers):
    """verify_simplification(bound) with its walk split over `workers`."""
    monkeypatch.setattr(pentangle, "_workers", lambda walk: workers)
    return verify_simplification(bound)


def test_verify_simplification_jobs_deterministic(monkeypatch):
    serial = verify_with_workers(monkeypatch, 2, 1)
    parallel = verify_with_workers(monkeypatch, 2, 3)
    assert serial == parallel


@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes of the pools sweeps ask for: a fake fork context runs the
    chunks in process and records each size; no process is started."""
    sizes = []

    class Pool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: SimpleNamespace(Pool=Pool))
    monkeypatch.setattr(pentangle, "_worker_tables", None)
    return sizes


def test_pool_sized_by_chunks(monkeypatch, pool_sizes):
    serial = verify_simplification(2)
    assert pool_sizes == []  # a walk of 5 is swept in process
    # the workers split the walked nw corners, the 5 slopes of T0 at bound
    # 2 (inf, +-1 and +-1/2), so 64 workers ask for a pool of 5
    walk = _SweepTables(stern_brocot_slopes(2)).walk
    for workers, chunks in ((64, 5), (3, 3), (2, 2)):
        assert verify_with_workers(monkeypatch, 2, workers) == serial
        assert pool_sizes[-1] == chunks == len(_partition(walk, workers))
    assert len(pool_sizes) == 3


@pytest.mark.parametrize("source", ["sched_getaffinity", "cpu_count"])
def test_workers_sized_by_walk_and_cpus(monkeypatch, pool_sizes, source):
    # one worker per 83 walked nw corners, at most one per CPU the process
    # may run on, read from its affinity mask or, where os has no
    # sched_getaffinity (macOS), from os.cpu_count()
    def cpus(count):
        if source == "sched_getaffinity":
            monkeypatch.setattr(os, source, lambda pid: range(count))
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, source, lambda: count)

    cpus(10_000)
    assert [pentangle._workers(range(n))
            for n in (5, 165, 166, 332, 10**6)] == [1, 1, 2, 4, 10_000]
    cpus(3)
    assert pentangle._workers(range(10**6)) == 3
    # 10,000 CPUs sweep bound 82 (a walk of 165) in process and bound 83
    # (167) in a pool of 2; 1 CPU sweeps bound 83 in process
    verify_simplification(82)
    cpus(1)
    serial = verify_simplification(83)
    assert pool_sizes == []
    cpus(10_000)
    assert verify_simplification(83) == serial
    assert pool_sizes == [2]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks")
def test_pool_that_cannot_start_sweeps_in_process(monkeypatch):
    # fork or a pipe can fail (EAGAIN under a process limit, ENOMEM,
    # EMFILE); the walk is then swept in process, to the same report
    serial = verify_with_workers(monkeypatch, 10, 1)
    asked = []

    def refuse(*args, **kwargs):
        asked.append(args)
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(type(multiprocessing.get_context("fork")), "Pool",
                        refuse)
    assert verify_with_workers(monkeypatch, 10, 2) == serial
    assert len(asked) == 1


def test_workers_without_a_cpu_count(monkeypatch):
    # os.cpu_count() is None where the count cannot be determined
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pentangle._workers(range(10**6)) == 1


def test_workers_without_fork(monkeypatch):
    # Windows has neither os.fork nor os.sched_getaffinity; the pool forks,
    # so a sweep there stays in process whatever its CPU count
    serial = verify_with_workers(monkeypatch, 83, 1)
    monkeypatch.undo()
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def get_context(method):
        pytest.fail(f"asked for a {method} context")
    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    assert pentangle._workers(range(10**6)) == 1
    assert verify_simplification(83) == serial
