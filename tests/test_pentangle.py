import functools
import random
from itertools import product

import pentangle_oracle as oracle
import pytest
from pentangle_oracle import (X_FILLINGS, _is_one_minus_reciprocal,
                              corot_map, m5_to_p5, mirror_sym, p5_to_m5, rot3,
                              rot3_fix_ne, shift, swap_fb, swap_lr, swap_tb)
from surgeryforge import pentangle
from surgeryforge.pentangle import (MIRROR_P3_LISTS, NONHYP_LISTS,
                                    P3_LISTS, ROW_CONSTRAINTS,
                                    P5Filling as F, _KLEIN, _ROWS,
                                    _bits, _pair_masks, _simp_masks,
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
    # rot3 moves the fifth slope x by corot_map and the mirror by
    # reciprocal; the swap and rot3 laws are acceptance criterion 09's
    f, x = F(rat(2, 3), rat(5), INF, rat(-1, 2)), rat(4)
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
    # reciprocating the non-hyperbolic list of pairing A gives that of
    # pairing B, pair by pair, and fixes that of pairing C (acceptance
    # criterion 09 checks the factoring lists)
    def recip_set(pairset):
        out = set()
        for (a, b) in pairset:
            ra = ExtRational(a[1], a[0]) if a[0] else INF
            rb = ExtRational(b[1], b[0]) if b[0] else INF
            out.add(tuple(sorted(((ra.num, ra.den), (rb.num, rb.den)))))
        return frozenset(out)

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
    # each map puts one slope map h of corner order[q] at corner q (checked
    # on every height-2 filling), so simplifies(g(f)) is read from a table
    # of simplifies over the tuples of h's images: one call per tuple and h
    slopes = stern_brocot_slopes(4)
    n = len(slopes)
    index = {s: i for i, s in enumerate(slopes)}
    tables = {}

    def table(values):
        if values not in tables:
            tables[values] = [simplifies(F(*corners))
                              for corners in product(values, repeat=4)]
        return tables[values]

    want = table(tuple(slopes))
    small = list(product(stern_brocot_slopes(2), repeat=4))
    for g in (swap_lr, swap_tb, swap_fb, rot3, rot3_fix_ne, mirror_sym):
        h = {s: g(F(s, s, s, s)).nw for s in slopes}
        firsts = [h[s] for s in slopes[:4]]
        order = [firsts.index(c) for c in g(F(*slopes[:4])).corners()]
        for c in small:
            assert g(F(*c)) == F(*(h[c[p]] for p in order)), (g, c)
        if set(h.values()) <= index.keys():
            got, idx = want, [index[h[s]] for s in slopes]
        else:
            got, idx = table(tuple(h.values())), range(n)
        # the flat index of g(f) in got: corner p of f lands at corner q
        place = {p: n ** (3 - q) for q, p in enumerate(order)}
        w0, w1, w2, w3 = ([place[p] * i for i in idx] for p in range(4))
        assert [got[a + b + c + d] for a in w0 for b in w1 for c in w2
                for d in w3] == want, g


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


def test_no_tuple_of_one_slope_is_necessary():
    # the kernel weighs no (nw, nw, nw, nw) on the ne = nw diagonal: every
    # row's gate is then that slope, which would have to lie in T0, Tinf
    # and Tm1 at once, and they share none; the slopes of bound 40 hold
    # those of bounds 2-40
    for s in stern_brocot_slopes(40):
        assert not all(THIN[x](s) for x in X_FILLINGS), s
        f = F(s, s, s, s)
        assert not all(two_bridge_necessary(f, x) for x in X_FILLINGS), s


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


MIXED_CELL_PATCHES = [("P3_LISTS",), ("NONHYP_LISTS",),
                      ("MIRROR_P3_LISTS", "_TRIVIAL")]
EVERY_LIST = ("P3_LISTS", "MIRROR_P3_LISTS", "_TRIVIAL", "NONHYP_LISTS")


@functools.cache
def oracle_rows(bound):
    """The per-triple oracle's necessary rows at bound, made once for every
    patch set."""
    return oracle.necessary_rows(stern_brocot_slopes(bound))


# the bounds at which several tests sweep the whole walk under one patch
# set, and the sweeps made there, by (kind, bound, the lists as patched)
SHARED_BOUNDS = range(2, 7)
_MADE = {}


def _once(kind, bound, make):
    """make(), at a shared bound once per kind, bound and value of the
    simplification lists in the library and the oracle, so that no answer
    made under one patch set is read under another.  Elsewhere no other
    test reads the answer, which is not kept: every full garbage collection
    walks the kept counterexamples."""
    if bound not in SHARED_BOUNDS:
        return make()
    key = (kind, bound, pentangle._SIMPLIFYING, *(
        getattr(module, name) for module in (pentangle, oracle)
        for name in EVERY_LIST))
    if key not in _MADE:
        _MADE[key] = make()
    return _MADE[key]


def library_sweep(bound):
    """The library's (necessary, simplified, counterexamples) over the whole
    walk at bound, with the lists as patched, the walked counterexamples as
    a set."""
    def make():
        tb = _SweepTables(stern_brocot_slopes(bound))
        return _sweep_chunk(tb, tb.walk)
    return _once("library", bound, make)


def oracle_sweep(bound):
    """The per-triple oracle's (necessary, simplified, counterexamples) over
    every tuple at bound, with the lists as patched, the counterexamples as
    a set."""
    def make():
        necessary, simplified, ces = oracle._sweep_chunk(
            stern_brocot_slopes(bound), oracle_rows(bound))
        return necessary, simplified, set(ces)
    return _once("oracle", bound, make)


def assert_sweeps_match_oracle(bounds):
    """At each bound the whole sweep, its walked counterexamples with their
    orbit images, reports what the per-triple oracle reports, and counts
    each necessary tuple as simplified or as a counterexample.  Returns the
    sweep at the last bound, with the images."""
    for bound in bounds:
        necessary, simplified, walked = library_sweep(bound)
        ces = oracle.orbit_images(walked)
        assert (necessary, simplified, ces) == oracle_sweep(bound), bound
        assert necessary == simplified + len(ces), bound
    return necessary, simplified, ces


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
    # simplified tuples and counterexamples, and each walked counterexample
    # is one by the object predicates: necessary for every x-filling, and
    # neither non-hyperbolic nor factoring through a listed pair.  The
    # whole-sweep test at these lists counts the counterexamples
    empty_lists(monkeypatch, *names)
    rng = random.Random(29)
    for bound in SHARED_BOUNDS:
        slopes = stern_brocot_slopes(bound)
        necessary, simplified, ces = library_sweep(bound)
        for tup in rng.sample(sorted(ces), min(len(ces), 40)):
            f = F(*(slopes[i] for i in tup))
            assert all(two_bridge_necessary(f, x) for x in X_FILLINGS), f
            assert not simplifies(f), f
    assert simplified > 0 and ces


def assert_chunks_match_oracle(bound, chunk_counts=(1, 2, 3, 7, 128)):
    """Each chunk of the walk dealt round-robin into `count` chunks, for
    each count of chunk_counts, reports what the least-corner oracle
    reports for its nw corners; a chunk dealt under several counts is swept
    once, and the whole walk is the library's whole sweep.  Up to bound 8
    the chunks of each dealing, which partitions the walk, together report
    the per-triple oracle's sweep over every tuple, their walked
    counterexamples with their orbit images, and the walked
    counterexamples are returned."""
    tb = _SweepTables(stern_brocot_slopes(bound))
    assert tb.walk == [i for i in range(tb.n) if tb.in0[i]]
    by_corner = {i: oracle.least_corner_chunk(tb, [i]) for i in tb.walk}

    def report(corners):
        want = [by_corner[i] for i in corners]
        return (sum(w[0] for w in want), sum(w[1] for w in want),
                set().union(*(w[2] for w in want)))

    swept = set()
    for count in chunk_counts:
        dealt = [tb.walk[w::count] for w in range(min(count, len(tb.walk)))]
        for corners in dealt:
            if tuple(corners) in swept:
                continue
            swept.add(tuple(corners))
            got = (library_sweep(bound) if corners == tb.walk
                   else _sweep_chunk(tb, corners))
            assert got == report(corners), (count, corners)
    if bound <= 8:
        necessary, simplified, walked = report(tb.walk)
        assert (necessary, simplified,
                oracle.orbit_images(walked)) == oracle_sweep(bound)
        return walked


def test_kernel_matches_visit_oracle_by_chunk():
    # chunks of the walk, at a bound above the range of the per-triple
    # oracle
    assert_chunks_match_oracle(10)


@pytest.mark.parametrize("names", MIXED_CELL_PATCHES + [EVERY_LIST])
def test_chunks_match_least_corner_oracle_with_counterexamples(monkeypatch,
                                                              names):
    # with lists emptied, cells hold counterexamples, which each chunk
    # reports as the tuples it walks
    empty_lists(monkeypatch, *names)
    for bound in SHARED_BOUNDS:
        ces = assert_chunks_match_oracle(bound)
    assert ces
    assert_chunks_match_oracle(10, (3,))


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
    # what it reports, test_kernel_matches_visit_oracle_by_chunk checks
    _sweep_chunk(tb, tb.walk)
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
    # 4 / c tuples of their orbit.  A chunk returns only walked tuples: nw
    # is their least corner in the order that puts T0 first.  No tuple with
    # four equal corners passes, as no slope lies in all three thin sets.
    # The chunk test with every list emptied checks the expansions against
    # the least-corner oracle
    empty_lists(monkeypatch, *EVERY_LIST)
    tb = _SweepTables(stern_brocot_slopes(5))
    ces = library_sweep(5)[2]
    ne_bad = {ce[1] for ce in ces}
    assert any(len(g) > 1 and ne_bad.issuperset(g)
               for g in ne_group_members(tb))
    rank = {s: r for r, s in enumerate(sorted(
        range(tb.n), key=lambda s: (not tb.in0[s], s)))}
    assert all(min(ce, key=rank.get) == ce[0] for ce in ces)
    assert {ce.count(ce[0]) for ce in ces} == {1, 2, 3}
    assert not tb.m0 & tb.minf & tb.mm1


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
        wants = (need for row in oracle_rows(5)[i] for need in row)
        for (j, k, need, simp), want in zip(kernel_masks(tb, i), wants,
                                            strict=True):
            assert need == want, (i, j, k)
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
    necessary, simplified, ces = oracle_sweep(3)
    assert simplified == 0 and len(ces) == necessary > 0
    named = tuple(tuple(slopes[x] for x in ce) for ce in sorted(ces))
    # the report adds the orbit images of the counterexamples that the
    # walk meets, whose nw corners may lie outside the walk
    results, got = verify_simplification(3)
    assert (results["necessary_all_three"], results["simplified"],
            got) == (necessary, simplified, named)


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
