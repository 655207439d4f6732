"""References for surgeryforge.families and the point rule, one per
property, each as the code stood before its rewrite; property: reference
(the inputs the tests run it at).

- Intersection report: verify_three_filling_intersections, from the
  references below (bounds 2-30).
- Coincidence solvers: _coincidences, a double loop, once per c1 - c2
  (c1, c2 in -3..3, bounds 2-60, 100, 300).  Case 1b: _case_1b (bounds
  31-60, 100, 300; below, the report).
- Case 2b: case_2b, one label evaluation per A-family member (the shipped
  labels in the report; 40 random tables once at bound 12 for bounds
  2-12; constant labels and BAD_SLOT_1 at bound 4).
- Labels and exclusions: CLOSED_FORMS, one function per family
  (|m|, |n|, |p| <= 12, 1 <= q <= 12; A over |m|, |n| <= 40).
- Dual: riemenschneider_dual, dot by dot (over 2..7, lengths 1-6).
- Census sequences: seeded_gofk_sequences, six templates on each seed's
  dual pair, once per pair for the seed and its dual, with the seeds of
  one generator per docstring lemma: _gofk_seeds (seqmax 0-8, tmax
  -1..8), _four_shape_gofk_seeds (seqmax 9 at tmax -1, 4, 12; (20, 20),
  (12, 40), (40, 12), (100, 5)) and _single_entry_gofk_seeds ((40, 40),
  (80, 80), (5, 100), (100, 5)).
- Catalog: optsurg_catalog, one branch per family kind (|k| <= 20)."""

import itertools
from math import gcd

from surgeryforge import families
from surgeryforge.families import ExcludedParameter, _is_twist_shape
from surgeryforge.lens import LensSpace, is_lens_label
from surgeryforge.normseq import gofk_exponent_sums
from surgeryforge.rationals import INF, ExtRational, rat


def _recip_shift(c, m):
    # the slope c - 1/m
    return ExtRational(c * m - 1, m)


def _coincidences(c1, xs, c2, ys):
    """The pairs (x, y) with c1 - 1/x = c2 - 1/y, in order.  x and y are
    nonzero, so the slopes are equal exactly when their cross products are."""
    return tuple(sorted([(x, y) for x in xs for y in ys
                         if (c1 * x - 1) * y == (c2 * y - 1) * x]))


def _case_1b(ms, mps):
    """The (m, m', n), m != 0, with n = 1 - 1/m + 1/m' an allowed integer."""
    return tuple(sorted([
        (m, mp, n) for m in ms if m != 0 for mp in mps
        if (num := m * mp - mp + m) % (m * mp) == 0
        and (n := num // (m * mp)) not in (0, 1, 2, 3)
        and (m, n) not in ((-1, 4), (-1, 5))]))


def verify_three_filling_intersections(bound):
    """Solve the slope-pair coincidences between families with adjacent lens
    slots and check the solution set is the A and B families plus the
    subsumed cases.

    Case 1 (slots {0,inf} vs {1,inf}), case 2 ({1,inf} vs {2,inf}) and
    case 3 ({2,inf} vs {3,inf}), each in both pairing orders: case 1a by
    its slope loop, cases 1b, 2a and 3a by the double loops above and case
    2b by case_2b's member loop."""
    if bound < 2:
        raise ValueError("bound must be >= 2")
    rng = range(-bound, bound + 1)
    rng_mp = [m for m in rng if m not in (0, 1)]
    rng_mpp = [m for m in rng if m not in (-1, 0, 1)]
    rows_2b, count_2b = case_2b(bound)

    # (case, solutions, expected solutions), in report order
    cases = (
        # Case 1a: n = 3 - 1/m'.  Forces m' = -1, n = 4 (m' = +1 is
        # excluded), leaving the one-parameter family M3(4, -1/m).
        ("case_1a", tuple((_recip_shift(3, mp).num, mp) for mp in rng_mp
                          if _recip_shift(3, mp).is_integer
                          and _recip_shift(3, mp).num not in (0, 1, 2, 3)),
         ((4, -1),)),
        # Case 1b: n = p'/q' and 4 - n - 1/m = 3 - 1/m'.
        ("case_1b", _case_1b(rng, rng_mp), ((1, -1, -1),)),
        # Case 2a: 3 - 1/m' = 2 - 1/m'' with the free slope shared: the B
        # family.
        ("case_2a", _coincidences(3, rng_mp, 2, rng_mpp), ((2, -2),)),
        # Case 2b: every pair (m'', m') gives the A family member
        # A[m'', m'], whose labels must be valid.
        ("case_2b", rows_2b, ()),
        # Case 3a: 2 - 1/m'' = 1 - 1/m'''.
        ("case_3a", _coincidences(2, rng_mpp, 1, rng_mpp), ((2, -2),)),
    )
    results = {name: sols for name, sols, _ in cases if name != "case_2b"}
    results["case_2b_count"] = count_2b
    # Case 3b pairs the slopes the other way; the constraint equation is the
    # same, so the solution set must agree with case 3a.
    results["case_3b_matches_3a"] = results["case_3a"] == ((2, -2),)
    return results, tuple((name, sols) for name, sols, want in cases
                          if sols != want)


def _check(cond, family, message):
    if not cond:
        raise ExcludedParameter(f"{family}: excluded parameters ({message})")


_X_PQ_EXCLUDED = {rat(0), rat(1), rat(2), rat(3), INF}
_B_PQ_EXCLUDED = {rat(0), rat(1), rat(3, 2), rat(2), rat(3), INF}


def _x0(m, n):
    _check(m != 0, "X0", "m = 0")
    _check(n not in (0, 1, 2, 3), "X0", f"n = {n}")
    _check((m, n) not in ((-1, 4), (-1, 5)), "X0", f"(m,n) = ({m},{n})")
    c = 1 - m * (4 - n)
    return (6 * m - 1, 2 * m - 1), (-n * c - m, c)


def _x1(m, pq):
    _check(m not in (0, 1), "X1", f"m = {m}")
    _check(pq not in _X_PQ_EXCLUDED, "X1", f"p/q = {pq}")
    p, q = pq.num, pq.den
    # the slot-1 label is kept verbatim from the transcription although it
    # is inconsistent with the A/B families on shared manifolds
    return ((2 * m * (p - 3 * q) + p - q, m * (p - 3 * q) - q),
            (-m * (3 * p - q) + p, 3 * p - q))


def _x2(m, pq):
    _check(m not in (-1, 0, 1), "X2", f"m = {m}")
    _check(pq not in _X_PQ_EXCLUDED, "X2", f"p/q = {pq}")
    p, q = pq.num, pq.den
    return ((3 * m * (p - 2 * q) - 2 * p + q, m * (p - 2 * q) - p + q),
            (-m * (2 * p - q) + p, 2 * p - q))


def _x3(m, n):
    _check(m not in (-1, 0, 1), "X3", f"m = {m}")
    _check(n not in (-1, 0, 1), "X3", f"n = {n}")
    return (((1 + 2 * m) * (1 + 2 * n) - 4, m * (1 + 2 * n) - 2),
            (m + n - 1, -1))


def _fam_a_labels(m, n):
    """The raw lens labels (p, q) of A[m, n] at the slots 1, 2 and inf."""
    return ((2 * m * n + m + 2 * n - 1, m * n + m + n),
            (3 * m * n - 3 * m - 5 * n + 2, m * n - m - 2 * n + 1),
            (5 * m * n - 2 * m - 3 * n + 1, 3 - 5 * m))


def _fam_a(m, n):
    _check(m not in (-1, 0, 1), "A", f"m = {m}")
    _check(n not in (0, 1), "A", f"n = {n}")
    return _fam_a_labels(m, n)


def _fam_b(pq):
    _check(pq not in _B_PQ_EXCLUDED, "B", f"p/q = {pq}")
    p, q = pq.num, pq.den
    return ((-3 * p + 11 * q, 2 * p - 7 * q), (8 * p - 13 * q, 3 * p - 5 * q),
            (5 * p - 2 * q, 2 * p - q))


# family: its closed form, which checks the exclusions and returns the raw
# labels (p, q) of the lens slots, in order
CLOSED_FORMS = {"X0": _x0, "X1": _x1, "X2": _x2, "X3": _x3, "A": _fam_a,
                "B": _fam_b}


def bilinear(form):
    """The dict form of a bilinear form given as its coefficients of
    (mn, m, n, 1)."""
    return dict(zip(("mn", "m", "n", ""), form))


def a_family(labels):
    """families.FAMILIES["A"] with the labels of its finite slots
    replaced."""
    return families.FAMILIES["A"][:3] + (labels,)


# An A-family slot-1 label whose value, over the bound-4 parameter ranges,
# is invalid only at A[2, 3] (there it is (-34, -17)), for tests that need
# one bad member in families.FAMILIES["A"]
BAD_SLOT_1 = (bilinear((-3, -3, -3, -1)), bilinear((-3, -1, 1, 0)))


def case_2b(bound):
    """The case-2b rows and case_2b_count of
    verify_three_filling_intersections, by evaluating every A-family member
    through families._evaluate (so a patched families.FAMILIES["A"])."""
    rng = range(-bound, bound + 1)
    rng_mp = [mp for mp in rng if mp not in (0, 1)]
    rng_mpp = [mpp for mpp in rng if mpp not in (-1, 0, 1)]

    # Case 2b: 3 - 1/m' = p''/q'' and p'/q' = 2 - 1/m'': every pair (m'',m')
    # works and gives the A family member A[m'', m'], whose labels at the
    # finite slots must be valid (slot inf's is computed from the chart).
    # The two ranges are the A family's exclusions.  A label with gcd 1 is
    # valid, so is_lens_label decides only the rest.
    bad_2b = []
    for mp in rng_mp:
        for mpp in rng_mpp:
            labels = families._evaluate("A", (mpp, mp))
            if all(gcd(p, q) == 1 for p, q in labels):
                continue
            if not all(is_lens_label(p, q) for p, q in labels):
                bad_2b.append((mpp, mp))
    return tuple(bad_2b), len(rng_mp) * len(rng_mpp) - len(bad_2b)


def riemenschneider_dual(seq):
    """The dual of an all->=2 sequence by the point rule.

    Row i of a staircase carries a_i - 1 dots, each row starting in the
    column of the last dot of the row above; the dual entry b_j is one more
    than the number of dots in column j.  The dual satisfies
    1/[a_1,...,a_l] + 1/[b_1,...,b_m] = 1 exactly, and the rule is an
    involution.
    """
    entries = tuple(seq)
    if not entries or any(a < 2 for a in entries):
        raise ValueError("point rule needs a nonempty all->=2 sequence")
    col_counts = []
    col = 0
    for a in entries:
        for j in range(col, col + a - 1):
            if j == len(col_counts):
                col_counts.append(0)
            col_counts[j] += 1
        col = col + a - 2
    return tuple(c + 1 for c in col_counts)


def _gofk_seeds(t_bound, seq_bound):
    """The seed sequences a of the dual pairs (a, dual(a)).

    Lengths 1..seq_bound with at most three entries from 3..seq_bound+3
    placed among 2s.  Seeds with more cannot contribute: each template
    instance contains a itself, a without one end entry, or a without both
    end entries next to a merged entry of at least 4, so four non-2 entries
    in a leave at least three in every instance, and no fibered pattern
    shape has more than two.  The twist family's index t comes from the
    seed (t+2, 3) alone, so those seeds are added up to t_bound where the
    range above stops short of them.  Callers pass seq_bound >= 2."""
    big = range(3, seq_bound + 4)
    for length in range(1, seq_bound + 1):
        for k in range(min(3, length) + 1):
            for spots in itertools.combinations(range(length), k):
                for values in itertools.product(big, repeat=k):
                    a = [2] * length
                    for i, v in zip(spots, values):
                        a[i] = v
                    yield tuple(a)
    for t in range(seq_bound + 2, t_bound + 1):
        yield (t + 2, 3)


def _four_shape_gofk_seeds(t_bound, seq_bound):
    """The seeds a of the dual pairs (a, dual(a)): lengths 1..seq_bound, all
    2s or with entries from 3..seq_bound+3, one anywhere or two at the ends.

    No other seed contributes.  Let a (length >= 2) have n entries other than
    2, I inside.  By the row-start rule of riemenschneider_dual (b is all 2s
    plus one at each partial sum of a_k - 2 short of the last), b = dual(a)
    has I + 1, ending in one exactly where a ends in 2.  Any other seed has
    two or more, one inside, so b is longer than 1 with n - 1 inside.  Each
    template instance on (f, s) = (a, b) or (b, a) is then, up to reversing
    s, f+(5,)+s[1:] or f+s (n + I + 1 or more), f[:-1]+(x,)+s[:-1] with
    x >= 5 (n + I + 1, as just one of f, s ends in 2) or f[:-1]+(x,)+s[1:-1]
    with x >= 4 (2n - 1 or 2I + 1): three or more, and no fibered pattern
    shape has more than two.  Seeds (t+2, 3) alone give twist index
    t <= t_bound."""
    big = range(3, seq_bound + 4)
    for length in range(1, seq_bound + 1):
        twos = (2,) * length
        yield twos
        yield from (twos[:i] + (v,) + twos[i + 1:]
                    for i in range(length) for v in big)
        if length > 1:
            yield from ((v,) + twos[2:] + (w,) for v in big for w in big)
    for t in range(seq_bound + 2, t_bound + 1):
        yield (t + 2, 3)


def _single_entry_gofk_seeds(t_bound, seq_bound):
    """The seeds a of the dual pairs (a, dual(a)): lengths 1..seq_bound, all
    2s or all 2s but one entry, from 3..seq_bound+3 at lengths 1 and 2 and a
    3 at greater lengths; and the twist seeds (t+2, 3), 1 <= t <= t_bound."""
    big = range(3, seq_bound + 4)
    for length in range(1, seq_bound + 1):
        twos = (2,) * length
        yield twos
        yield from (twos[:i] + (v,) + twos[i + 1:] for i in range(length)
                    for v in (big if length <= 2 else (3,)))
    for t in range(1, t_bound + 1):
        yield (t + 2, 3)


def _template_instances(first, second):
    """The six large-type sequence templates on a dual pair, with the
    structural side conditions the case analysis attaches to each type.

    rev(second) enters as b_m, ...; index ranges that empty out at m = 1
    drop the merged cell together with the tail.  The insert-2 template only
    realizes census members when one side is a single entry (otherwise the
    output is a shape that no positive surgery produces), and the
    double-insert template only at the self-dual pair (2) <-> (2)."""
    rev = tuple(reversed(second))
    m = len(second)
    out = []
    if len(first) == 1 or m == 1:
        out.append(first + (2,) + rev[:-1])                    # chain insert 2
    out.append(first + (5,) + rev[:-1])                        # chain insert 5
    out.append(first + rev)                                    # plain join
    if m == 1 and second[0] == 2:
        out.append(first[:-1] + (first[-1] + 1, 2, 2))         # double insert
    if m >= 2:
        out.append(first[:-1] + (first[-1] + second[-1],) + rev[1:-1])
    else:
        out.append(first[:-1])                                 # merged cell
    out.append(first[:-1] + (first[-1] + second[-1] + 1,) + rev[1:])
    return out


def census_keeps(seq, t_bound, seq_bound):
    """The census filters: a sequence with exponent sums, all 2s at most
    seq_bound long and a twist shape of index at most t_bound."""
    if len(seq) - seq.count(2) > 2:
        return False  # no pattern shape has more entries other than 2
    if not seq or not gofk_exponent_sums(seq):
        return False
    if all(e == 2 for e in seq) and len(seq) > seq_bound:
        return False
    t = _is_twist_shape(seq)
    return t is None or t <= t_bound


def seeded_gofk_sequences(pairs, t_bound, seq_bound):
    """The six-template instances of the dual pairs (a, dual(a)) in pairs,
    in both orders, that the census filters keep."""
    found = set()
    for a, b in pairs:
        for first, second in ((a, b), (b, a)):
            for seq in _template_instances(first, second):
                if seq not in found and census_keeps(seq, t_bound, seq_bound):
                    found.add(seq)
    return found


def optsurg_catalog(family, k, ell=None):
    """The surgery-dual pair of the given catalog family.

    Families 1-3 take an optional second index for the partner; families 4-6
    pair a knot with its inf-filling partner and need k != 0."""
    if family in (1, 2, 3):
        if ell is None:
            ell = k
        sub, c, (pa, pb), (qa, qb) = {
            1: ("-1", -6, (6, -1), (2, -1)),
            2: ("-2", -4, (8, -2), (2, -1)),
            3: ("-3", -3, (9, -3), (3, -2)),
        }[family]
        pair = []
        for i in (k, ell):
            slope = ExtRational(c * i + 1, i)
            pair.append((f"K^({sub})_({slope})",
                         LensSpace(pa * i + pb, qa * i + qb)))
        return tuple(pair)
    if family in (4, 5, 6):
        if k == 0:
            raise ValueError(f"family {family} needs k != 0")
        data = {
            4: ((-3, 1), "-3", (9, -3, 3, -2), (3, -1, -1, 0)),
            5: ((-4, 1), "-2", (8, -2, 2, -1), (4, -1, -1, 0)),
            6: ((-6, 1), "-1", (6, -1, 2, -1), (6, -1, -1, 0)),
        }[family]
        sup, sub, first, second = data
        s = ExtRational(sup[0] * k + sup[1], k)
        d1 = (f"K^({s})_({sub})",
              LensSpace(first[0] * k + first[1], first[2] * k + first[3]))
        d2 = (f"K^({s})_(inf)",
              LensSpace(second[0] * k + second[1], second[2] * k + second[3]))
        return (d1, d2)
    raise ValueError("family must be 1..6")
