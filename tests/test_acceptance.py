"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (run with -s to see them).  All comparisons are exact;
the stated time budgets are asserted as hard limits.
"""

import time
from contextlib import contextmanager
from itertools import product
from math import gcd

from pentangle_oracle import rot3, swap_fb, swap_lr, swap_tb
from surgeryforge import families, pentangle, simpleknot
from surgeryforge.lens import LensSpace, S3, homeo_oriented, homeo_unoriented
from surgeryforge.normseq import gofk_exponent_sums, riemenschneider_dual
from surgeryforge.rationals import INF, cf_eval, cf_expand_norm, rat
from surgeryforge.simpleknot import SimpleKnot, canonical_triple, euler_char


@contextmanager
def criterion(number, budget_s, label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {label}")
        raise
    elapsed = time.monotonic() - start
    status = "PASS" if elapsed < budget_s else "FAIL (over budget)"
    print(f"ACCEPTANCE {number:02d} {status} ({elapsed:.2f}s < {budget_s}s): {label}")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"


def _triple(family, params):
    return {str(slot): space
            for slot, space in families.family_triple(family, params)}


def test_criterion_01_family_a_spot_checks():
    with criterion(1, 1.0, "family A spot checks"):
        a32 = _triple("A", (3, 2))
        assert a32 == {"1": LensSpace(18, 11), "2": S3,
                       "inf": LensSpace(19, -12)}
        assert LensSpace(19, -12) == LensSpace(19, 7)
        a25 = _triple("A", (2, 5))
        assert a25 == {"1": LensSpace(31, 17), "2": S3,
                       "inf": LensSpace(32, -7)}
        assert LensSpace(32, -7) == LensSpace(32, 25)
        assert homeo_oriented(LensSpace(18, 11), LensSpace(18, 5))


def test_criterion_02_family_b_spot_checks():
    with criterion(2, 1.0, "family B spot checks"):
        b4 = _triple("B", (rat(4),))
        assert b4 == {"1": S3, "2": LensSpace(19, 7), "inf": LensSpace(18, 7)}
        assert homeo_unoriented(LensSpace(18, 7), LensSpace(18, 5))


def test_criterion_03_star_solver():
    with criterion(3, 5.0, "quadratic congruence solver"):
        plus = simpleknot.star_solutions(31, 1)
        assert plus == ((5, 6), (25, 26))
        minus = simpleknot.star_solutions(31, -1)
        assert minus == ((13, 17), (19, 11))
        assert simpleknot.star_canonical(31, plus) == (5, 6)
        assert simpleknot.star_canonical(31, minus) == (12, 13)
        # the tabulated tuples are the +-k partners of the raw eps = -1 roots
        assert canonical_triple(31, 17, 13) == canonical_triple(31, 17, 18)
        assert canonical_triple(31, 11, 19) == canonical_triple(31, 11, 12)
        for p in (33, 51, 69):
            assert simpleknot.star_solutions(p, 1) == ()
            assert simpleknot.star_solutions(p, -1) == ()
        for p in range(1, 501):
            for eps in (1, -1):
                got = simpleknot.star_solutions(p, eps)
                want = {k for k in range(1, p)
                        if (k * k + eps * (k + 1)) % p == 0}
                assert {k for k, _ in got} == want
                assert all((-k * k) % p == q for k, q in got)


def test_criterion_04_euler_characteristics():
    with criterion(4, 5.0, "Euler characteristics and genus searches"):
        assert euler_char(SimpleKnot(49, 19, 18)) == -33
        assert simpleknot.genus_primitive(SimpleKnot(49, 19, 18)) == 17
        assert euler_char(SimpleKnot(67, 30, 29)) == -49
        assert simpleknot.genus_primitive(SimpleKnot(67, 30, 29)) == 25
        assert euler_char(SimpleKnot(3, 1, 1)) == 1
        assert simpleknot.genus_primitive(SimpleKnot(3, 1, 1)) == 0
        assert euler_char(SimpleKnot(5, 4, 2)) == -1
        assert simpleknot.genus_primitive(SimpleKnot(5, 4, 2)) == 1
        assert simpleknot.knots_with_genus(LensSpace(50, 41), 17) == ()
        assert simpleknot.knots_with_genus(LensSpace(68, 59), 25) == ()


def test_criterion_05_simple_knot_equivalences():
    with criterion(5, 30.0, "simple knot equivalences and chi invariance"):
        assert canonical_triple(31, 17, 18) == canonical_triple(31, 11, 12)
        assert canonical_triple(31, 6, 5) == canonical_triple(31, 26, 25)
        for p in range(2, 61):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                qi = pow(q, -1, p)
                for k in range(1, p):
                    chi = euler_char(SimpleKnot(p, q, k))
                    assert euler_char(SimpleKnot(p, q, p - k)) == chi
                    kk = (qi * k) % p
                    assert euler_char(SimpleKnot(p, qi, kk)) == chi
                    assert euler_char(SimpleKnot(p, qi, p - kk)) == chi


def test_criterion_06_norm_sequence_suite():
    with criterion(6, 60.0, "norm sequence suite"):
        # continued fraction round trip
        for p in range(2, 201):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                seq = cf_expand_norm(rat(p, q))
                assert all(a >= 2 for a in seq)
                assert cf_eval(seq) == rat(p, q)
        # dual involution, exact sum identity, point rule
        from fractions import Fraction
        checked = 0
        for length in range(1, 7):
            for seq in product(range(2, 7), repeat=length):
                dual = riemenschneider_dual(seq)
                v1, v2 = cf_eval(seq), cf_eval(dual)
                assert Fraction(v1.den, v1.num) + Fraction(v2.den, v2.num) == 1
                assert riemenschneider_dual(dual) == seq
                if seq != (2,):
                    assert (seq[-1] == 2) != (dual[-1] == 2)
                checked += 1
        assert checked == sum(5 ** n for n in range(1, 7))
        # exponent sums of the tabulated pattern shapes, from the chart
        for r in range(2, 9):
            for s in range(2, 9):
                assert r + s - 1 in gofk_exponent_sums((r, 2, s))
                assert r - s - 1 in gofk_exponent_sums((r, 3) + (2,) * (s - 1))
                assert -r - s - 1 in gofk_exponent_sums(
                    (2,) * (r - 1) + (4,) + (2,) * (s - 1))
                # the one-parameter column: the chart forces -s-2; the
                # printed cell's -r-2 reading (r = 4 literal) only matches
                # at s = 4.  (At s = 3 the shape is also an (r,2,s) chart
                # member, which contributes the extra value +5.)
                sums = gofk_exponent_sums((4,) + (2,) * (s - 1))
                assert -s - 2 in sums
                assert sums <= {-s - 2, s + 2}
                assert (-4 - 2 in sums) == (s == 4)
            expected = {r - 1, r + 1} | ({-3} if r == 4 else set()) \
                | ({-1, -3} if r == 2 else set())
            assert gofk_exponent_sums((r,)) == frozenset(expected)
            assert r - 2 in gofk_exponent_sums((r, 3))
            assert gofk_exponent_sums((2,) * (r - 1)) >= {-r + 1, -r - 1}


def test_criterion_07_census():
    with criterion(7, 120.0, "fibered knot census"):
        report, ces = families.gofklens_census(5, 6)
        assert ces == ()
        got = set(report["entries"])

        def canon(p, q, k):
            return families.CensusEntry(*simpleknot.canonical_triple(p, q, k))

        for p, q, k in ((7, 3, 2), (13, 4, 3), (13, 9, 2), (18, 11, 5),
                        (19, 3, 4), (27, 11, 4), (32, 7, 5)):
            assert canon(p, q, k) in got
        for t in range(0, 6):
            p = 9 * t + 14
            assert canon(p, (-9) % p, 3) in got
        for n in range(2, 7):
            assert canon(n + 1, n, 1) in got
        # every entry satisfies the dual-class congruence in its own
        # coordinates
        for e in report["entries"]:
            assert (-e.k * e.k) % e.p == e.q


def test_criterion_08_alternative_surgery_pipeline():
    with criterion(8, 60.0, "alternative surgery elimination"):
        report, ces = families.alt_gofk_pipeline()
        assert ces == () and report["census_ok"]
        by_order = {l.p: l for l in report["survivors"]}
        assert [l.p for l in report["survivors"]] == [18, 32, 50, 68]
        assert homeo_oriented(by_order[18], LensSpace(18, 11))
        assert homeo_oriented(by_order[32], LensSpace(32, 7))
        for tprime in (1, 2, 3):
            p = 18 * tprime + 14
            assert homeo_oriented(by_order[p], LensSpace(p, -9))
        final = report["final"]
        assert [f["p"] for f in final] == [19, 31]
        assert homeo_unoriented(final[0]["alternative_lens"],
                                LensSpace(18, 11))
        assert homeo_unoriented(final[1]["alternative_lens"],
                                LensSpace(32, 7))
        # the twist branches died by the genus obstruction
        assert all(not info["primitive_simple_knots"]
                   for info in report["genus_stage"].values())
        # quadratic-congruence classes at p = 31: torus pair and the dual
        # pair
        cands = report["star_stage"][final[1]["alternative_lens"]]
        sols31 = cands[31]["solutions"]
        assert sols31["+1"] == ((5, 6), (25, 26))
        assert sols31["-1"] == ((13, 17), (19, 11))
        assert len(cands[31]["classes"]) == 2
        assert cands[33]["solutions"] == {"+1": (), "-1": ()}
        # order 17 is excluded by the torus-knot bound, not by the
        # congruence
        cands18 = report["star_stage"][final[0]["alternative_lens"]]
        assert "excluded" in cands18[17]
        assert cands18[19]["solutions"]["+1"]
        assert cands18[19]["solutions"]["-1"]


def test_criterion_09_pentangle_sweep():
    with criterion(9, 600.0, "pentangle two-bridge triple sweep, bound 5"):
        report, ces = pentangle.verify_simplification(5)
        assert ces == ()
        assert report["necessary_all_three"] == report["simplified"] > 0
        # symmetry group laws
        for corners in ((rat(2, 3), rat(5), rat(-1, 2), rat(7, 2)),
                        (rat(2, 3), rat(5), INF, rat(-1, 2))):
            f = pentangle.P5Filling(*corners)
            for swap in (swap_lr, swap_tb, swap_fb):
                assert swap(swap(f)) == f
            assert rot3(rot3(rot3(f))) == f
        # reciprocation carries each factoring list onto its mirror partner
        def recip_set(pairset):
            out = set()
            for a, b in pairset:
                ra = (a[1], a[0]) if a[0] >= 0 else (-a[1], -a[0])
                rb = (b[1], b[0]) if b[0] >= 0 else (-b[1], -b[0])
                out.add(tuple(sorted((ra, rb))))
            return frozenset(out)

        assert recip_set(pentangle.P3_LISTS[0]) == pentangle.MIRROR_P3_LISTS[1]
        assert recip_set(pentangle.P3_LISTS[1]) == pentangle.MIRROR_P3_LISTS[0]
        assert recip_set(pentangle.P3_LISTS[2]) == pentangle.MIRROR_P3_LISTS[2]


def test_criterion_10_intersection_analysis():
    with criterion(10, 120.0, "three-filling intersections and translation"):
        r, ces = families.verify_three_filling_intersections(8)
        assert ces == ()
        assert r["case_1a"] == ((4, -1),)
        assert r["case_1b"] == ((1, -1, -1),)
        assert set(r["case_2a"][0]) == {-2, 2}
        assert set(r["case_3a"][0]) == {-2, 2}
        assert r["case_3b_matches_3a"]
        assert r["case_2b_count"] > 0            # family A is unconstrained
        r, ces = families.prop15_consistency(5)
        assert ces == ()
        unflagged = [row for row in r["rows"] if not row["flagged"]]
        assert unflagged and all(row["relation"] != "mismatch"
                                 for row in unflagged)
        # the tabulated family formulas carry incoherent orientations: both
        # oriented-equal and mirror-equal relations occur across the rows
        relations = {row["relation"] for row in unflagged}
        assert "equal" in relations and "mirror" in relations
        # the inf-slot partner needs the defective slot-1 formula: flagged
        # rows
        flagged = [row for row in r["rows"] if row["flagged"]]
        assert flagged and all(row["setting"] == "A[2,n]" for row in flagged)


def test_criterion_11_once_punctured_torus_catalog():
    with criterion(11, 1.0, "once-punctured-torus catalog"):
        data = families.figure_eight_sister_triple()
        assert data["triple"] == ("L(10,3)", "L(5,1)", "L(5,4)")
        assert LensSpace(5, 4) == LensSpace(5, -1)
        # three catalog families reproduce members of the same triple
        f1 = {str(l) for _, l in data["family1(k=1)"]}
        f2 = {str(l) for _, l in data["family2(k=-1)"]}
        assert f1 <= {"L(5,1)", "L(5,4)", "L(10,3)"} or "L(5,1)" in f1
        assert "L(10,3)" in f2
        for m in range(-10, 11):
            if m == 0:
                continue
            (_, lens), _ = families.optsurg_catalog(1, m)
            assert families.family_triple("X0", (m, 6))[0] == (rat(0), lens)
