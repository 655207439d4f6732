import json
import random
from itertools import product
from math import gcd, inf, isqrt

import pytest

import families_oracle as oracle
from surgeryforge import families
from surgeryforge.cli import main
from surgeryforge.families import (ExcludedParameter, _gofk_sequences,
                                   _template_instances, alt_gofk_pipeline,
                                   family_triple, gofklens_census,
                                   optsurg_catalog, prop15_consistency,
                                   verify_three_filling_intersections)
from surgeryforge.lens import (LensSpace, S1XS2, S3, homeo_oriented,
                              is_lens_label)
from surgeryforge.normseq import riemenschneider_dual
from surgeryforge.rationals import INF, rat
from surgeryforge.simpleknot import (SimpleKnot, canonical_triple,
                                     star_solutions)


def lenses(family, params):
    return {str(slot): space for slot, space in family_triple(family, params)}


def test_family_exclusions_are_named():
    with pytest.raises(ExcludedParameter, match="X0"):
        family_triple("X0", (0, 5))
    with pytest.raises(ExcludedParameter, match="n = 2"):
        family_triple("X0", (3, 2))
    with pytest.raises(ExcludedParameter, match="B"):
        family_triple("B", (rat(3, 2),))
    with pytest.raises(ExcludedParameter, match="A"):
        family_triple("A", (1, 5))
    with pytest.raises(ExcludedParameter):
        family_triple("X2", (2, rat(3)))
    # parameters given as a list are checked as their tuple
    with pytest.raises(ExcludedParameter, match=r"\(m,n\) = \(-1,4\)"):
        family_triple("X0", [-1, 4])
    assert family_triple("X0", [2, 5]) == family_triple("X0", (2, 5))


def test_family_triple_matches_closed_form_lenses():
    # one formula call per member gives each slot the lens space of its
    # closed-form label, and an excluded member or invalid label raises
    # what the closed form or the first invalid label raises
    ints = range(-4, 6)
    slopes = [rat(a, b) for a in range(-4, 6) for b in (1, 2, 3)
              if gcd(a, b) == 1] + [INF]
    for family, (parameters, _, slots, _) in families.FAMILIES.items():
        closed_form = oracle.CLOSED_FORMS[family]
        for params in product(*(slopes if name == "p/q" else ints
                                for name, _ in parameters)):
            try:
                want = tuple((slot, LensSpace(*label)) for slot, label
                             in zip(slots + (INF,), closed_form(*params)))
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    family_triple(family, params)
                assert (type(got.value), str(got.value)) == \
                    (type(exc), str(exc)), (family, params)
                continue
            assert family_triple(family, params) == want, (family, params)


# the linking matrix of the three cusps of the magic manifold M3
_M3_LINKING = ((0, 1, 1), (1, 0, -1), (1, -1, 0))


def _h1_order(slopes):
    """|H1(M3(s1, s2, s3))| = |det M|, with M_ii = p_i and M_ij = q_i L_ij
    for the slopes s_i = p_i/q_i and the linking matrix L."""
    (a, b, c), (d, e, f), (g, h, k) = (
        [s.num if i == j else s.den * link for j, link in enumerate(row)]
        for i, (s, row) in enumerate(zip(slopes, _M3_LINKING)))
    return abs(a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g))


def test_chart_homology_matches_labels():
    # at each lens slot s of a valid member, the chart filling M3(x, y, s)
    # has the label's order p, but for X1 slot 1, whose transcribed label
    # has the wrong order at every member until that label is repaired
    ints = range(-8, 9)
    slopes = [rat(a, b) for a in ints for b in range(1, 9) if gcd(a, b) == 1]
    x1_slot_1 = 0
    for family, (parameters, chart, _, _) in families.FAMILIES.items():
        for params in product(*(slopes if name == "p/q" else ints
                                for name, _ in parameters)):
            try:
                triple = family_triple(family, params)
            except ValueError:
                continue
            x, y = chart(*params)
            for slot, space in triple:
                order = _h1_order((x, y, slot))
                if (family, slot) == ("X1", rat(1)):
                    assert order != space.p, params
                    x1_slot_1 += 1
                else:
                    assert order == space.p, (family, params, slot)
    assert x1_slot_1 == 1035


def test_orders_beside_s1xs2_are_squares():
    # a knot in S1xS2 with winding number w has |H1| = w^2 at every filling
    # at distance 1 from the S1xS2 slope; of the 47 lens slots beside an
    # S1xS2 slot of a valid member, the eight whose order is not a square
    # are X1 slot 1, whose transcribed label has the wrong order
    ints = range(-12, 13)
    slopes = [rat(a, b) for a in ints for b in range(1, 13) if gcd(a, b) == 1]
    pairs, not_square = set(), set()
    for family, (parameters, _, _, _) in families.FAMILIES.items():
        for params in product(*(slopes if name == "p/q" else ints
                                for name, _ in parameters)):
            try:
                triple = family_triple(family, params)
            except ValueError:
                continue
            for s, space in triple:
                if space != S1XS2:
                    continue
                for slot, beside in triple:
                    if abs(s.num * slot.den - s.den * slot.num) != 1:
                        continue
                    pairs.add((family, params, s, slot))
                    if isqrt(beside.p) ** 2 != beside.p:
                        not_square.add((params, str(s), str(slot)))
                        assert family == "X1", (params, s, slot)
    assert len(pairs) == 47
    assert not_square == {
        # slot 1 beside an S1xS2 slot inf
        ((-3, rat(3, 10)), "inf", "1"), ((-2, rat(2, 7)), "inf", "1"),
        ((-1, rat(1, 4)), "inf", "1"), ((2, rat(2, 5)), "inf", "1"),
        ((3, rat(3, 8)), "inf", "1"), ((4, rat(4, 11)), "inf", "1"),
        # slot inf beside an S1xS2 label at slot 1
        ((-2, rat(11, 3)), "1", "inf"), ((-1, rat(5)), "1", "inf")}


def test_x_families_against_known_overlaps():
    # the inf-slot formulas agree with the three-filling families on shared
    # manifolds (up to the orientation slop of the tabulated formulas)
    b4, x2 = lenses("B", (rat(4),)), lenses("X2", (-2, rat(4)))
    assert homeo_oriented(b4["inf"], x2["inf"])
    assert homeo_oriented(b4["2"], x2["2"])


def test_wsl_identification_index_order():
    # the exterior of the 1-surgery knot on the unknotted component of the
    # Whitehead sister link is A[2, p+4] with p = 1, not A[p+4, 2]
    good = {str(space) for _, space in family_triple("A", (2, 5))}
    assert good == {"S3", "L(31,17)", "L(32,25)"}
    other = family_triple("A", (5, 2))
    assert {space.p for _, space in other} != {1, 31, 32}
    assert {str(space) for _, space in other} != good


def test_intersections_match_oracle_bounds_2_to_30():
    for bound in range(2, 31):
        got = verify_three_filling_intersections(bound)
        want = oracle.verify_three_filling_intersections(bound)
        assert got == want, bound


def test_intersections_bad_a_label_is_a_counterexample(monkeypatch):
    # a non-coprime label in the A family is reported under case 2b, not
    # raised
    clean, _ = verify_three_filling_intersections(4)
    monkeypatch.setitem(families.FAMILIES, "A", oracle.a_family(
        (oracle.BAD_SLOT_1,) + families.FAMILIES["A"][3][1:]))
    r, ces = verify_three_filling_intersections(4)
    assert ces == (("case_2b", ((2, 3),)),)
    assert r == dict(clean, case_2b_count=clean["case_2b_count"] - 1)
    assert oracle.case_2b(4) == (((2, 3),), r["case_2b_count"])


def _exclude(monkeypatch, family, parameter, *values):
    """Add values to a parameter's exclusions in FAMILIES."""
    parameters, *rest = families.FAMILIES[family]
    parameters = tuple((name, excluded | set(values) if name == parameter
                        else excluded) for name, excluded in parameters)
    monkeypatch.setitem(families.FAMILIES, family, (parameters, *rest))


def test_sweeps_read_their_ranges_from_families(monkeypatch, capsys):
    # the intersection sweep and the prop15 check range each parameter over
    # what FAMILIES allows: A's n for case 2b and setting II, X0's n for
    # case 1a
    clean, _ = verify_three_filling_intersections(4)
    rows = prop15_consistency(4)[0]["rows"]
    _exclude(monkeypatch, "A", "n", 2)
    r, ces = verify_three_filling_intersections(4)
    assert ces == ()
    assert clean["case_2b_count"] == 7 * 6
    assert r == dict(clean, case_2b_count=6 * 6)
    assert prop15_consistency(4)[0]["rows"] == tuple(
        row for row in rows if (row["setting"], row["param"]) != ("A[2,n]", 2))
    _exclude(monkeypatch, "X0", "n", 4)
    r, ces = verify_three_filling_intersections(4)
    assert r["case_1a"] == () and ces == (("case_1a", ()),)
    assert main(["families", "verify", "intersections", "--bound", "4"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["counterexamples"] == [["case_1a", []]]


def test_fam_a_table_matches_closed_form():
    # every family's table against its closed form, the finite slots'
    # labels and the exclusions: the grid has more points per variable than
    # any label's degree, so each finite slot agrees as a polynomial identity
    ints = range(-12, 13)
    slopes = [rat(a, b) for a in range(-12, 13) for b in range(1, 13)
              if gcd(a, b) == 1] + [INF]
    for family, (parameters, _, _, _) in families.FAMILIES.items():
        closed_form = oracle.CLOSED_FORMS[family]
        for params in product(*(slopes if name == "p/q" else ints
                                for name, _ in parameters)):
            try:
                want = closed_form(*params)
            except ExcludedParameter as exc:
                with pytest.raises(ValueError) as got:
                    families._chart(family, params)
                assert (type(got.value), str(got.value)) == \
                    (type(exc), str(exc)), (family, params)
                continue
            families._chart(family, params)
            assert families._evaluate(family, params) == want[:-1], (
                family, params)
    for m, n in product(range(-40, 41), repeat=2):
        assert (families._evaluate("A", (m, n))
                == oracle._fam_a_labels(m, n)[:-1])


def test_case_2b_is_bound_free(monkeypatch):
    # with every slot certified no member is evaluated, so a bound whose
    # member loop would take hours answers at once
    def no_members(family, params):
        raise AssertionError("case 2b evaluated a member")

    monkeypatch.setattr(families, "_evaluate", no_members)
    r, ces = verify_three_filling_intersections(10_000)
    assert ces == ()
    assert r == {"case_1a": ((4, -1),), "case_1b": ((1, -1, -1),),
                 "case_2a": ((2, -2),), "case_2b_count": 399_940_002,
                 "case_3a": ((2, -2),), "case_3b_matches_3a": True}


_CONSTANT_LABELS = ((0, 5), (0, 0), (6, 4), (1, 4))


def _random_a_table(rnd):
    """A's finite slots, each a constant label or a random bilinear form
    with coefficients in -3..3, drawn certified or uncertified."""
    slots = []
    for _ in families.FAMILIES["A"][2]:
        kind = rnd.randrange(4)
        if kind == 0:
            p, q = rnd.choice(_CONSTANT_LABELS)
            slots.append((oracle.bilinear((0, 0, 0, p)),
                          oracle.bilinear((0, 0, 0, q))))
            continue
        while True:
            label = tuple(oracle.bilinear([rnd.randint(-3, 3)
                                           for _ in range(4)])
                          for _ in range(2))
            if families._coprime_everywhere(label) == (kind > 1):
                break
        slots.append(label)
    return tuple(slots)


def test_case_2b_matches_member_loop_on_random_tables(monkeypatch):
    rnd = random.Random(20)
    seen = set()
    for _ in range(40):
        table = _random_a_table(rnd)
        monkeypatch.setitem(families.FAMILIES, "A", oracle.a_family(table))
        seen.update(map(families._coprime_everywhere, table))
        # the member loop once: a smaller bound's rows are its members'
        largest = oracle.case_2b(12)[0]
        for bound in range(2, 13):
            r, ces = verify_three_filling_intersections(bound)
            rows = tuple(row for row in largest
                         if max(map(abs, row)) <= bound)
            assert dict(ces).get("case_2b", ()) == rows, (table, bound)
            assert r["case_2b_count"] == (
                (2 * bound - 1) * (2 * bound - 2) - len(rows)), (table, bound)
    assert seen == {True, False}


def test_coprime_everywhere_refuses_other_monomials():
    # a label with a monomial other than mn, m, n and 1 is uncertified, not
    # read without that term: X0's former slot-inf label has an m n^2 term,
    # and the term added to a certified A label leaves it uncertified
    assert not families._coprime_everywhere(
        ({"mn": 4, "mnn": -1, "m": -1, "n": -1}, {"mn": 1, "m": -4, "": 1}))
    p, q = families.FAMILIES["A"][3][0]
    assert families._coprime_everywhere((p, q))
    assert not families._coprime_everywhere((dict(p, mnn=1), q))
    assert not families._coprime_everywhere((p, dict(q, p=1)))


def test_coincidence_solvers_match_double_loops():
    # the O(bound) solvers against the double loops they replaced, on the
    # parameter ranges of the call sites (case 1b to bound 30: the report's
    # test).  (c1 x - 1) y = (c2 y - 1) x is (c1 - c2) x y = y - x, so the
    # double loop runs once per c1 - c2
    for bound in [*range(2, 61), 100, 300]:
        rng = range(-bound, bound + 1)
        rng_mp = [m for m in rng if m not in (0, 1)]
        rng_mpp = [m for m in rng if m not in (-1, 0, 1)]
        if bound > 30:
            assert (verify_three_filling_intersections(bound)[0]["case_1b"]
                    == oracle._case_1b(rng, rng_mp)), bound
        loops = {}
        for c1, c2 in product(range(-3, 4), repeat=2):
            if c1 - c2 not in loops:
                loops[c1 - c2] = oracle._coincidences(c1, rng_mp, c2, rng_mpp)
            assert (families._coincidences(c1, rng_mp, c2, rng_mpp)
                    == loops[c1 - c2]), (bound, c1, c2)


@pytest.mark.parametrize("label", [(0, 5), (0, 0), (1, 4), (-1, 0), (1, 0),
                                   (-1, 7), (0, 1), (6, 4), (2, 0), (-6, 9)])
@pytest.mark.parametrize("slot", [0, 1])
def test_case_2b_gcd_fast_path_agrees_with_is_lens_label(monkeypatch, label,
                                                          slot):
    # an A-family label with gcd other than 1 is still valid when
    # is_lens_label says so, e.g. L(0,5); the certificate only skips slots
    # with gcd 1 everywhere.  The label stands at its slot as a constant
    # form, so it is every member's label there.
    p, q = label
    table = families.FAMILIES["A"][3]
    clean, _ = verify_three_filling_intersections(4)
    constant = (oracle.bilinear((0, 0, 0, p)), oracle.bilinear((0, 0, 0, q)))
    monkeypatch.setitem(families.FAMILIES, "A", oracle.a_family(
        table[:slot] + (constant,) + table[slot + 1:]))
    r, ces = verify_three_filling_intersections(4)
    rows, count = oracle.case_2b(4)
    assert (dict(ces).get("case_2b", ()), r["case_2b_count"]) == (rows, count)
    if is_lens_label(*label):
        assert (r, ces) == (clean, ())
    else:
        assert ces == (("case_2b", rows),)
        assert r == dict(clean, case_2b_count=0)
        assert len(rows) == clean["case_2b_count"]


def test_census_respects_bounds():
    small, ces = gofklens_census(2, 4)
    assert ces == ()
    orders = {e.p for e in small["entries"]}
    assert 32 in orders          # twist index 2 still inside
    assert 41 not in orders      # twist index 3 cut by t_bound = 2


@pytest.fixture(scope="module")
def seed_sequences():
    """oracle.seeded_gofk_sequences over the dual pairs of seeds, cut to
    (t_bound, seq_bound), from each pair's census sequences uncut by the
    bounds, made once per module for the seed and its dual, as the point
    rule is an involution."""
    made = {}

    def sequences(seeds, t_bound, seq_bound):
        found = set()
        for a in seeds:
            if a not in made:
                pair = a, oracle.riemenschneider_dual(a)
                made[a] = made[pair[1]] = frozenset(
                    oracle.seeded_gofk_sequences([pair], inf, inf))
            found |= made[a]
        return {seq for seq in found
                if oracle.census_keeps(seq, t_bound, seq_bound)}
    return sequences


@pytest.fixture(scope="module")
def three_entry_cell(seed_sequences):
    """A check that at one cell the census has no counterexample, and the
    closed-form seeds give the same sequences and census report as the old
    seeds, with up to three entries other than 2 anywhere (the product
    over 2..seeds+3 cut to those), seeds = max(seq_bound, 2), through the
    six old templates.  Only the twist seeds past the length-2 range
    depend on t_bound, so the other seeds' sequences are made once per
    seq_bound."""
    rest = {}

    def check(monkeypatch, t_bound, seq_bound):
        seeds = max(seq_bound, 2)
        if seq_bound not in rest:
            rest[seq_bound] = seed_sequences(oracle._gofk_seeds(-1, seeds),
                                             inf, seq_bound)
        old = {seq for seq in rest[seq_bound]
               if oracle.census_keeps(seq, t_bound, seq_bound)}
        old |= seed_sequences(
            [(t + 2, 3) for t in range(seeds + 2, t_bound + 1)], t_bound,
            seq_bound)
        cell = t_bound, seq_bound
        assert _gofk_sequences(*cell) == old, cell
        census = gofklens_census(*cell)
        assert census[1] == (), cell
        with monkeypatch.context() as patch:
            patch.setattr(families, "_gofk_sequences", lambda t, s: old)
            assert gofklens_census(*cell) == census, cell
    return check


PRODUCT_CELLS = [(s, t) for s in range(2, 6) for t in range(-1, 7)] + [(6, 6)]


@pytest.mark.parametrize("seq_bound,t_bound", PRODUCT_CELLS)
def test_gofk_sequences_match_product_oracle(monkeypatch, three_entry_cell,
                                             seq_bound, t_bound):
    three_entry_cell(monkeypatch, t_bound, seq_bound)


def test_seeds_match_old_generator_on_bound_grid(monkeypatch,
                                                 three_entry_cell):
    # the other cells with seqmax 0-8 and tmax -1..8
    for cell in product(range(0, 9), range(-1, 9)):
        if cell not in PRODUCT_CELLS:
            three_entry_cell(monkeypatch, cell[1], cell[0])


def test_census_ok_on_bound_grid():
    # seqmax 0-8 is three_entry_cell's grid
    for seq_bound in range(9, 11):
        for t_bound in range(-1, 9):
            _, ces = gofklens_census(t_bound, seq_bound)
            assert ces == (), (t_bound, seq_bound)
    assert gofklens_census(40, 40)[1] == ()


def test_census_duals_go_through_checked_point_rule(monkeypatch):
    # every seed's dual comes from riemenschneider_dual, the function with
    # the all->=2 guard, once per seed
    calls = []

    def counted(seq):
        calls.append(seq)
        return riemenschneider_dual(seq)

    monkeypatch.setattr(families, "riemenschneider_dual", counted)
    gofklens_census(6, 6)
    seeds = list(families._gofk_seeds(6, 6))
    assert len(seeds) == 26
    assert calls == seeds


def test_seeds_match_four_shape_generator_past_seqmax_8(seed_sequences):
    # the proved seeds are four-shape seeds, and the census sequences from
    # them equal those from the four seed shapes through the six old
    # templates at cells too large for the three-entry oracle: every seed
    # left out (the dual of a kept seed, two ends, one entry of 4 or more
    # at length 3 or more, a twist seed beyond tmax) gives only sequences
    # that a census filter rejects or that the kept seeds give too
    for t_bound, seq_bound in ((-1, 9), (4, 9), (12, 9), (20, 20), (12, 40),
                               (40, 12), (100, 5)):
        old = list(oracle._four_shape_gofk_seeds(t_bound, seq_bound))
        assert set(families._gofk_seeds(t_bound, seq_bound)) < set(old)
        assert _gofk_sequences(t_bound, seq_bound) == seed_sequences(
            old, t_bound, seq_bound), (t_bound, seq_bound)


def test_seeds_match_single_entry_generator_at_large_bounds(
        seed_sequences):
    # at (80, 80) and (5, 100) the four seed shapes are 0.8 and 1.5 million
    # seeds, tens of seconds through the oracle.  The old seeds with at most
    # one entry other than 2, to which the _gofk_seeds lemmas cut the four
    # shapes, stand in for them there
    for t_bound, seq_bound in ((40, 40), (80, 80), (5, 100), (100, 5)):
        assert _gofk_sequences(t_bound, seq_bound) == seed_sequences(
            oracle._single_entry_gofk_seeds(t_bound, seq_bound), t_bound,
            seq_bound), (t_bound, seq_bound)


def _docstring_table(t_bound, seeds):
    # the _template_instances docstring's table: (seed shape, order,
    # template) to the instances it lists, before the census filters
    def twos(n):
        return (2,) * n

    return {
        ("(v)", "a, w", "plain join"): [(v,) + twos(v - 1) for v in (2, 3, 4)],
        ("(v)", "a, w", "merged cell"): [seq for v, seq in (
            (3, (5,)), (5, (7, 2, 2))) if v <= seeds + 2],
        ("(v)", "a, w", "merged + 1"): [(5,), (7, 2, 2)],
        ("(v)", "w, a", "plain join"): [twos(v - 1) + (v,) for v in (2, 3, 4)],
        ("(v)", "w, a", "merged cell"): [twos(v - 2)
                                         for v in range(3, seeds + 3)],
        ("(v)", "w, a", "merged + 1"): [(5,), (2, 2, 7)],
        ("(v,2)", "a, w", "merged cell"): [(3, 5)],
        ("(v,2)", "w, a", "merged cell"): [(2, 2, 5)],
        ("(2,v)", "w, a", "merged cell"): [(3, 2, 6)],
        ("(t+2,3)", "w, a", "merged cell"): [twos(t) + (3, 5)
                                             for t in range(1, t_bound + 1)],
    }


def test_template_table_of_the_docstring(seed_sequences):
    # on a grid of cells, the kept instances of each seed shape, order and
    # template are those the _template_instances docstring lists; they make
    # up the census sequences, and the oracle's three insert templates add
    # none on the kept seeds
    for t_bound in range(-1, 13):
        for seq_bound in range(0, 13):
            seeds = max(seq_bound, 2)
            shapes = {"(v)": [(v,) for v in range(2, seeds + 3)],
                      "(v,2)": [(v, 2) for v in range(3, seeds + 4)],
                      "(2,v)": [(2, v) for v in range(4, seeds + 4)],
                      "(t+2,3)": [(t + 2, 3) for t in range(1, t_bound + 1)]}
            drawn = [a for row in shapes.values() for a in row]
            assert sorted(families._gofk_seeds(t_bound, seeds)) == sorted(
                drawn)

            def keeps(seq):
                return oracle.census_keeps(seq, t_bound, seq_bound)

            got = {}
            for shape, row in shapes.items():
                for a in row:
                    w = riemenschneider_dual(a)
                    for order, pair in (("a, w", (a, w)), ("w, a", (w, a))):
                        for name, seq in zip(
                                ("plain join", "merged cell", "merged + 1"),
                                _template_instances(*pair)):
                            if keeps(seq):
                                got.setdefault((shape, order, name),
                                               set()).add(seq)
            table = {key: set(filter(keeps, seqs)) for key, seqs
                     in _docstring_table(t_bound, seeds).items()}
            assert got == {key: seqs for key, seqs in table.items() if seqs}
            seqs = set().union(*got.values())
            assert seqs == _gofk_sequences(t_bound, seq_bound)
            assert seed_sequences(drawn, t_bound, seq_bound) == seqs, (
                t_bound, seq_bound)


def test_equivalence_classes_match_pairwise_scan():
    # grouping by canonical triple gives the classes, and their order, of a
    # scan that compares each knot with the first member of every class
    for p in range(2, 80):
        knots = [SimpleKnot(p, q, k) for eps in (1, -1)
                 for k, q in star_solutions(p, eps)]
        knots += [SimpleKnot(p, q, k) for q in range(1, p) for k in (1, 2)
                  if gcd(p, q) == 1 and k < p]
        scan = []
        for k in knots:
            for cls in scan:
                if (canonical_triple(cls[0].p, cls[0].q, cls[0].k)
                        == canonical_triple(k.p, k.q, k.k)):
                    cls.append(k)
                    break
            else:
                scan.append([k])
        assert families._equivalence_classes(knots) == scan, p


def test_pipeline_filters_record_both_orientations():
    exponent_filter = alt_gofk_pipeline()[0]["exponent_filter"]
    for info in exponent_filter.values():
        assert info["kept"]
        assert (set(info["own"]) | set(info["mirror"])) & {-1, 1, 3}
    # at least one survivor needed the mirror reading
    assert any(not (set(info["own"]) & {-1, 1, 3})
               for info in exponent_filter.values())


def test_optsurg_catalog_families():
    d1, d2 = optsurg_catalog(6, 1)
    assert d1 == ("K^(-5)_(-1)", LensSpace(5, 1))
    assert d2 == ("K^(-5)_(inf)", LensSpace(5, -1))
    d1, d2 = optsurg_catalog(2, -1)
    assert d1[1] == LensSpace(-10, -3) == LensSpace(10, 3)
    d1, d2 = optsurg_catalog(4, 2)
    assert d1[1] == LensSpace(15, 4)
    assert d2[1] == LensSpace(5, -2)
    with pytest.raises(ValueError):
        optsurg_catalog(4, 0)
    with pytest.raises(ValueError):
        optsurg_catalog(7, 1)
    for family in (4, 5, 6):
        with pytest.raises(ValueError,
                           match="^only families 1-3 take a second index$"):
            optsurg_catalog(family, 2, 3)


def test_optsurg_pairs_with_partner_index():
    pair = optsurg_catalog(1, 2, 3)
    assert pair[0][1] == LensSpace(11, 3)
    assert pair[1][1] == LensSpace(17, 5)


def test_optsurg_catalog_matches_oracle():
    # the table gives the two-branch catalog's pairs, and its errors, on
    # every family, with and without the second index of families 1-3
    def outcome(catalog, *args):
        try:
            return catalog(*args)
        except ValueError as exc:
            return "error", str(exc)

    grid = [(family, k) for family in range(1, 7) for k in range(-20, 21)
            if family <= 3 or k != 0]
    grid += [(family, k, ell) for family in (1, 2, 3) for k in range(-20, 21)
             for ell in range(-5, 6)]
    for args in grid:
        assert (outcome(optsurg_catalog, *args)
                == outcome(oracle.optsurg_catalog, *args)), args


def test_three_filling_orders():
    # the three lens slots sit at mutual distance one, so the homology
    # orders satisfy the triangle relation o_a + o_b = o_c; orders are
    # pairwise distinct except when that relation degenerates (a zero
    # order, or two equal orders summing to the third)
    from math import gcd
    coincidences = []
    for m in range(-10, 11):
        for n in range(-10, 11):
            try:
                t = family_triple("A", (m, n))
            except ExcludedParameter:
                continue
            orders = sorted(space.p for _, space in t)
            assert orders[0] + orders[1] == orders[2], (m, n)
            finite = [o for o in orders if o > 1]
            if len(set(finite)) != len(finite):
                coincidences.append(("A", m, n))
    for a in range(-10, 11):
        for b in range(0, 11):
            if (a, b) == (0, 0) or (b > 0 and gcd(abs(a), b) != 1):
                continue
            try:
                t = family_triple("B", (rat(a, b),))
            except ExcludedParameter:
                continue
            orders = sorted(space.p for _, space in t)
            assert orders[0] + orders[1] == orders[2], (a, b)
            finite = [o for o in orders if o > 1]
            if len(set(finite)) != len(finite):
                coincidences.append(("B", a, b))
    assert coincidences == [("A", -3, -1), ("A", 2, -1), ("A", 2, 4),
                            ("B", -9, 2), ("B", 2, 5)]


def test_a32_contains_s3_exactly_once():
    t = family_triple("A", (3, 2))
    spheres = [str(slot) for slot, space in t if space == S3]
    assert spheres == ["2"]
