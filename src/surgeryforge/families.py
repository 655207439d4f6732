"""Filling families of the three-cusped magic manifold M3 with two or three
lens space fillings, their intersection analysis, the census of lens spaces
that both arise from positive integral surgery on a knot in the three-sphere
and contain a genus one fibered knot, the alternative-surgery elimination,
and the once-punctured-torus surgery catalog.

Each family is a chart: its members are the fillings M3(x, y, s) with the
slopes (x, y) a function of the family parameters, and a member is excluded
when a chart slope is exceptional (in {0, 1, 2, 3, inf}).  The lens space at
slot inf is surgery on a Hopf link, computed from the chart; at each finite
lens slot it is a polynomial label in the family parameters, all read from
one coefficient table.  The slot-1 formula of the X1 family is inconsistent
with the A/B families on overlaps and is excluded from consistency checking
(see the flagged rows it produces).
"""

from math import prod

from .lens import (LensSpace, from_surgery, homeo_oriented, homeo_unoriented,
                   is_lens_label, mirror)
from .normseq import (format_items, gofk_exponent_sums, norm_sequence_of,
                      riemenschneider_dual, to_lens)
from .rationals import (INF, ExtRational, FrozenValue, cf_eval, cf_expand,
                        cf_step, parse_slope, rat)
from .simpleknot import (SimpleKnot, canonical_triple, genus_primitive,
                         knots_with_genus, star_solutions)


class ExcludedParameter(ValueError):
    """Raised when family parameters violate the stated exclusions."""


_X_PQ = {rat(0), rat(1), rat(2), rat(3), INF}

# name: (parameters, chart, lens slots, labels).  A parameter is (name,
# excluded values), where the slope "p/q" gives the variables p and q.  The
# chart maps a member's parameters to the slopes (x, y) of its cusps: the
# member is the filling M3(x, y, s) of the magic manifold (Martelli and
# Petronio, "Dehn filling of the 'magic' 3-manifold", Comm. Anal. Geom.
# 2006), and (x, y) is in the order _slot_inf reads.  A member with a chart
# slope in _X_PQ is excluded, as is each excluded parameter value.  The
# labels are the lens spaces' (p, q) at the finite lens slots, in order,
# each a pair of polynomials {monomial: coefficient} whose monomial is the
# string of its variables ("mp" is m p, "" the constant).  Every family has
# the lens slot inf as well, computed from the chart.
FAMILIES = {
    # Two slot formulas of the two-filling families X0-X3 are written with
    # the parameter m where the transcription read n.
    "X0": ((("m", {0}), ("n", {0, 1, 2, 3})),
           lambda m, n: (rat(n), cf_step(4 - n, rat(m))), (rat(0),),
           (({"m": 6, "": -1}, {"m": 2, "": -1}),)),
    # the slot-1 label is kept verbatim from the transcription although it
    # is inconsistent with the A/B families on shared manifolds
    "X1": ((("m", {0, 1}), ("p/q", _X_PQ)),
           lambda m, pq: (cf_step(3, rat(m)), pq), (rat(1),),
           (({"mp": 2, "mq": -6, "p": 1, "q": -1},
             {"mp": 1, "mq": -3, "q": -1}),)),
    "X2": ((("m", {-1, 0, 1}), ("p/q", _X_PQ)),
           lambda m, pq: (cf_step(2, rat(m)), pq), (rat(2),),
           (({"mp": 3, "mq": -6, "p": -2, "q": 1},
             {"mp": 1, "mq": -2, "p": -1, "q": 1}),)),
    "X3": ((("m", {-1, 0, 1}), ("n", {-1, 0, 1})),
           lambda m, n: (cf_step(1, rat(m)), cf_step(1, rat(n))), (rat(3),),
           (({"mn": 4, "m": 2, "n": 2, "": -3}, {"mn": 2, "m": 1, "": -2}),)),
    "A": ((("m", {-1, 0, 1}), ("n", {0, 1})),
          lambda m, n: (cf_step(3, rat(n)), cf_step(2, rat(m))),
          (rat(1), rat(2)),
          (({"mn": 2, "m": 1, "n": 2, "": -1}, {"mn": 1, "m": 1, "n": 1}),
           ({"mn": 3, "m": -3, "n": -5, "": 2},
            {"mn": 1, "m": -1, "n": -2, "": 1}))),
    "B": ((("p/q", _X_PQ | {rat(3, 2)}),), lambda pq: (rat(5, 2), pq),
          (rat(1), rat(2)),
          (({"p": -3, "q": 11}, {"p": 2, "q": -7}),
           ({"p": 8, "q": -13}, {"p": 3, "q": -5}))),
}


def parse_params(family, raw):
    """A family member's parameters from their text: a slope for p/q, an
    integer for any other parameter FAMILIES names for the family."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    parameters = FAMILIES[family][0]
    if len(raw) != len(parameters):
        raise ValueError(f"family {family} takes {len(parameters)} "
                         f"parameter(s), got {len(raw)}")
    params = []
    for (name, _), text in zip(parameters, raw):
        if name == "p/q":
            params.append(parse_slope(text))
            continue
        try:
            params.append(int(text))
        except ValueError:
            raise ValueError(f"family {family} parameter {text!r} is not an "
                             "integer") from None
    return tuple(params)


def _evaluate(family, params):
    """The raw lens labels (p, q) of a family member at its finite lens
    slots, in order, with no exclusion check."""
    parameters, _, _, labels = FAMILIES[family]
    values = {}
    for (name, _), value in zip(parameters, params):
        if name == "p/q":
            values["p"], values["q"] = value.num, value.den
        else:
            values[name] = value
    return tuple(tuple(sum(coeff * prod(map(values.get, monomial))
                           for monomial, coeff in poly.items())
                       for poly in label)
                 for label in labels)


def _chart(family, params):
    """The chart slopes (x, y) of a family member, after checking each
    parameter in turn and then the slopes against the family's exclusions."""
    parameters, chart, _, _ = FAMILIES[family]
    bad = [f"{name} = {value}" for (name, values), value
           in zip(parameters, params) if value in values]
    slopes = chart(*params)
    if not _X_PQ.isdisjoint(slopes):
        names = ",".join(name for name, _ in parameters)
        bad.append(f"({names}) = ({','.join(map(str, params))})")
    if bad:
        raise ExcludedParameter(f"{family}: excluded parameters ({bad[0]})")
    return slopes


def _slot_inf(x, y):
    """M3(x, y, inf): surgery on a Hopf link, which slam dunks turn into the
    chain of unknots [reversed cf_expand(x), y] and then into one unknot."""
    return from_surgery(cf_eval(cf_expand(x)[::-1] + (y,)))


def family_triple(family, params):
    """All lens filling slots of one family member, as (slot, LensSpace)
    pairs in slot order: the finite slots from one evaluation of the
    family's labels, then slot inf from its chart.

    params: X0/X3/A take (m, n) integers; X1/X2 take (m, p/q); B takes (p/q,)
    with p/q an ExtRational.  Excluded parameters raise ExcludedParameter
    with the exclusion named, and an invalid label raises ValueError.
    """
    x, y = _chart(family, params)
    return tuple((slot, LensSpace(*label)) for slot, label
                 in zip(FAMILIES[family][2], _evaluate(family, params))) + (
                     (INF, _slot_inf(x, y)),)


# ---------------------------------------------------------------------------
# Intersections of the two-filling families: which members acquire a third
# lens space filling.  Filling slope pairs are compared as unordered pairs
# (the cusp symmetry exchanges the two unfilled cusps).
# ---------------------------------------------------------------------------


def _coincidences(c1, xs, c2, ys):
    """The pairs (x, y) with c1 - 1/x = c2 - 1/y, in order.  Cross
    multiplied, (c1 x - 1) y = (c2 y - 1) x, whose one solution for a given
    x is y = x / (1 + (c2 - c1) x) when that is an integer."""
    ys = set(ys)
    out = []
    for x in xs:
        d = 1 + (c2 - c1) * x
        if d and not x % d and (y := x // d) in ys:
            out.append((x, y))
    return tuple(sorted(out))


_BILINEAR = ("mn", "m", "n", "")


def _coprime_everywhere(label):
    """Whether a label (p, q) of bilinear forms in (m, n) has gcd(p, q) = 1
    at every integer (m, n), by a Bezout certificate.  A label with any
    other monomial is not certified.

    Read as linear in m, p = A m + B and q = C m + D with A, B, C, D linear
    in n.  When the resultant A D - B C is the constant polynomial +-1,
    (p, q) is a unimodular integer matrix times (m, 1) at every n, so
    gcd(p, q) = gcd(m, 1) = 1.  Read in n, the m and n coefficients swap
    roles; a form may be certified in one variable only."""
    if any(monomial not in _BILINEAR for poly in label for monomial in poly):
        return False
    (pa, pb, pc, pd), (qa, qb, qc, qd) = (
        tuple(poly.get(monomial, 0) for monomial in _BILINEAR)
        for poly in label)
    for (a1, a0, b1, b0), (c1, c0, d1, d0) in (
            ((pa, pb, pc, pd), (qa, qb, qc, qd)),     # linear in m
            ((pa, pc, pb, pd), (qa, qc, qb, qd))):    # linear in n
        # A D - B C = (a1 d1 - b1 c1) y^2 + (a1 d0 + a0 d1 - b1 c0 - b0 c1) y
        #             + (a0 d0 - b0 c0), y the other variable
        if (a1 * d1 == b1 * c1 and a1 * d0 + a0 * d1 == b1 * c0 + b0 * c1
                and abs(a0 * d0 - b0 * c0) == 1):
            return True
    return False


def _allowed(family, parameter, values):
    """The values that FAMILIES lets the family's parameter take."""
    excluded = dict(FAMILIES[family][0])[parameter]
    return [value for value in values if value not in excluded]


def verify_three_filling_intersections(bound):
    """Solve the slope-pair coincidences between families with adjacent lens
    slots and check the solution set is the A and B families plus the
    subsumed cases.

    Case 1 (slots {0,inf} vs {1,inf}), case 2 ({1,inf} vs {2,inf}) and
    case 3 ({2,inf} vs {3,inf}), each in both pairing orders, over the
    values in [-bound, bound] that FAMILIES allows.  Returns (results,
    counterexamples): the solution sets per case, and a (case, solutions)
    row for each case whose solutions are not the expected ones."""
    if bound < 2:
        raise ValueError("bound must be >= 2")
    rng = range(-bound, bound + 1)
    m0, m1, m2, m3 = (_allowed(f"X{i}", "m", rng) for i in range(4))
    a_m, a_n = _allowed("A", "m", rng), _allowed("A", "n", rng)

    # Case 2b: 3 - 1/m' = p''/q'' and p'/q' = 2 - 1/m'': every pair (m'',m')
    # works and gives the A family member A[m'', m'], whose three lens
    # labels must be valid.  Slot inf's is a reduced fraction computed from
    # the chart, so valid by construction.  A finite slot with a Bezout
    # certificate has gcd 1, so a valid label, at every member.  Only the
    # slots without one are evaluated member by member; every shipped slot
    # has one, so none is ever visited.
    uncertified = [slot for slot, label in enumerate(FAMILIES["A"][3])
                   if not _coprime_everywhere(label)]
    bad_2b = []
    if uncertified:
        for n in a_n:
            for m in a_m:
                labels = _evaluate("A", (m, n))
                if not all(is_lens_label(*labels[slot])
                           for slot in uncertified):
                    bad_2b.append((m, n))

    # (case, solutions, expected solutions), in report order
    cases = (
        # Case 1a: n = 3 - 1/m'.  Forces m' = -1, n = 4 (m' = +1 is
        # excluded), leaving the one-parameter family M3(4, -1/m).
        ("case_1a", tuple((s.num, mp) for mp in m1
                          if (s := cf_step(3, rat(mp))).is_integer
                          and _allowed("X0", "n", [s.num])), ((4, -1),)),
        # Case 1b: n = p'/q' and 4 - n - 1/m = 3 - 1/m', so n = 1 + t with
        # t = 1/m' - 1/m an integer, m != 0.  |t| <= 2 as m' is not 0 or 1,
        # and n is not 0..3, so t = -2: 0 - 1/m = -2 - 1/m' with n = -1,
        # which no (m, n) exclusion meets.
        ("case_1b", tuple((m, mp, -1) for m, mp
                          in _coincidences(0, m0, -2, m1)),
         ((1, -1, -1),)),
        # Case 2a: 3 - 1/m' = 2 - 1/m'', the free slope shared: family B.
        ("case_2a", _coincidences(3, m1, 2, m2), ((2, -2),)),
        # Case 2b: the A family members with an invalid label.
        ("case_2b", tuple(bad_2b), ()),
        # Case 3a: 2 - 1/m'' = 1 - 1/m'''.
        ("case_3a", _coincidences(2, m2, 1, m3), ((2, -2),)),
    )
    results = {name: sols for name, sols, _ in cases if name != "case_2b"}
    results["case_2b_count"] = len(a_m) * len(a_n) - len(bad_2b)
    # Case 3b pairs the slopes the other way; the constraint equation is the
    # same, so the solution set must agree with case 3a.
    results["case_3b_matches_3a"] = results["case_3a"] == ((2, -2),)
    return results, tuple((name, sols) for name, sols, want in cases
                          if sols != want)


# ---------------------------------------------------------------------------
# The slope translation M3(3/2, alpha, beta) <-> M3(4, (1-alpha)/(2-alpha),
# 3-beta) (an orientation-reversing homeomorphism).  Family formulas on the
# two sides are compared unoriented; the oriented relation found (equal or
# mirror) is recorded per row because the family formulas do not
# carry coherent orientations.
# ---------------------------------------------------------------------------


# (oriented-equal, mirror-equal) -> relation
_RELATION = {(True, True): "both", (True, False): "equal",
             (False, True): "mirror", (False, False): "mismatch"}


def _relation(l1, l2):
    return _RELATION[homeo_oriented(l1, l2), homeo_oriented(l1, mirror(l2))]


def prop15_consistency(bound):
    """Cross-check the A family against the X families through the slope
    translation, for parameters up to the bound.

    Returns (results, counterexamples): {"rows": rows}, one row per
    comparison, and the unflagged rows whose two sides are not
    homeomorphic."""
    rows = []
    bad = []

    def record(setting, param, a, slot, partner, flagged=False):
        # compare A[a] at the slot with the partner (family, params, slot)
        family, params, partner_slot = partner
        lhs = dict(family_triple("A", a))[slot]
        try:
            rhs = dict(family_triple(family, params))[partner_slot]
        except ValueError:
            if not flagged:
                raise
            rhs, rel = "invalid label", "mismatch"
        else:
            rel = _relation(lhs, rhs)
        row = {"setting": setting, "param": param, "alpha": slot,
               "side_a": lhs, "side_b": rhs, "relation": rel,
               "flagged": flagged}
        rows.append(row)
        if rel == "mismatch" and not flagged:
            bad.append(row)

    # Setting I: A[m,-1] = M3(2-1/m, 4) against M3(3/2, mu^-1(slot), 1+1/m).
    for m in _allowed("A", "m", range(-bound, bound + 1)):
        pq = cf_step(1, rat(-m))  # 1 + 1/m
        record("A[m,-1]", m, (m, -1), rat(1), ("X2", (2, pq), INF))
        record("A[m,-1]", m, (m, -1), rat(2), ("X3", (-2, -m), rat(3)))
        record("A[m,-1]", m, (m, -1), INF, ("X2", (2, pq), rat(2)))

    # Setting II: A[2,n] = M3(3/2, 3-1/n) against M3(4, mu(slot), 1/n).
    for n in _allowed("A", "n", range(-bound, bound + 1)):
        record("A[2,n]", n, (2, n), rat(1), ("X0", (-n, 4), rat(0)))
        record("A[2,n]", n, (2, n), rat(2), ("X0", (-n, 4), INF))
        # the partner of the inf slot is the slot-1 formula of X1, which is
        # the known-inconsistent one (it can even produce non-coprime labels);
        # computed and flagged, never counted against the check
        record("A[2,n]", n, (2, n), INF,
               ("X1", (-1, ExtRational(1, n)), rat(1)), flagged=True)

    return {"rows": tuple(rows)}, tuple(bad)


# ---------------------------------------------------------------------------
# Census: lens spaces from positive integral surgery on a knot in S^3 that
# contain a genus one fibered knot, with the homology class of the surgery
# dual.  The sporadic small-type rows are fixed data; the all-2s rows and the
# large types are generated from dual sequence pairs pushed through three
# templates and filtered by the fibered pattern shapes.  Entries are
# canonicalized by simple-knot equivalence.
# ---------------------------------------------------------------------------


class CensusEntry(FrozenValue):
    """A census row (p, q, k); rows sort by that tuple."""

    __slots__ = ("p", "q", "k")

    def __init__(self, p, q, k):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", k)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() < other._fields()
        return NotImplemented

    def __str__(self):
        return f"(p,q,k)=({self.p},{self.q},{self.k})"


def _canonical_entry(p, q, k):
    return CensusEntry(*canonical_triple(p, q, k))


_SMALL_TYPE_ROWS = (
    # (sequence, lens label, dual class k) for the sporadic small types
    ((2, 2, 3, 5), LensSpace(32, 7), 5),
    ((4, 3, 2), LensSpace(18, 11), 5),
    ((2, 3, 4), LensSpace(18, 5), 7),
)


def _template_instances(first, second):
    """The three large-type sequence templates on a dual pair: the plain
    join first + rev(second); the merged cell, which adds second's last
    entry to first's last and drops second's first; and the merged cell
    + 1, which keeps all of rev(second).  With m = len(second) = 1 the
    merged cell drops together with the tail.

    What each seed a of _gofk_seeds gives, with w = dual(a), in each order
    and template, and the rule of the normseq._pattern_sums chart that
    admits it ("rev": the rule matches the reversed sequence):

        a        order   template     kept instances            rule
        (v)      (a, w)  plain join   (v,2^[v-1]), v = 2, 3, 4  all 2s,
                                                                (r,2,s),
                                                                one 4
                         merged cell  (5), (7,2,2): v = 3, 5    (r), (r,2,s)
                         merged + 1   (5), (7,2,2): v = 2, 4    (r), (r,2,s)
        (v)      (w, a)  plain join   (2^[v-1],v), v = 2, 3, 4  as (a, w)
                         merged cell  2^[v-2], v >= 3           all 2s
                         merged + 1   (5), (2,2,7): v = 2, 4    (r), (r,2,s)
        (v,2)    (a, w)  merged cell  (3,5): v = 3              (r,3) rev
        (v,2)    (w, a)  merged cell  (2,2,5): v = 4            (r,2,s)
        (2,v)    (a, w)  none
        (2,v)    (w, a)  merged cell  (3,2,6): v = 4            (r,2,s)
        (t+2,3)  (a, w)  none
        (t+2,3)  (w, a)  merged cell  (2^[t],3,5), t >= 1       (r,3,2^[s-1])
                                                                rev

    So the all-2s and the twist family come from the merged cell in the
    (w, a) order, and every other instance from a seed with v <= 5.  The
    insert templates add nothing to these: a 2 between (v) and 2^[v-1] is
    the plain join, and between 2^[v-1] and (v) it gives 2^[v], the merged
    cell of (v+2) in the (w, a) order; a 5 between 2^[v-1] and (v) gives
    (2^[v-1],5), the merged cell of (v+1,2) in the (w, a) order; and
    (3,2,2), the double insert on (2) <-> (2), is the plain join of (3)."""
    rev = tuple(reversed(second))
    if len(second) >= 2:
        merged = first[:-1] + (first[-1] + second[-1],) + rev[1:-1]
    else:
        merged = first[:-1]
    return (first + rev, merged,
            first[:-1] + (first[-1] + second[-1] + 1,) + rev[1:])


def _is_twist_shape(seq):
    """(2,...,2,3,5) or its reverse; returns the twist index t or None."""
    for s in (seq, tuple(reversed(seq))):
        if len(s) >= 2 and s[-2:] == (3, 5) and all(e == 2 for e in s[:-2]):
            return len(s) - 2
    return None


def _gofk_seeds(t_bound, seq_bound):
    """One seed a per dual pair (a, dual(a)) that can contribute: (v) for
    2 <= v <= seq_bound+2, (v, 2) for 3 <= v <= seq_bound+3, (2, v) for
    4 <= v <= seq_bound+3, and the twist seeds (t+2, 3), 1 <= t <= t_bound.

    No other pair contributes.  Let a (length >= 2) have n entries other
    than 2, I inside.  By the row-start rule of riemenschneider_dual (b is
    all 2s plus one at each partial sum of a_k - 2 short of the last),
    b = dual(a) has I + 1, ending in one exactly where a ends in 2.  Any
    seed with two or more, one inside, has b longer than 1 with n - 1
    inside.  Each template instance on (f, s) = (a, b) or (b, a) is then,
    up to reversing s, f+s (n + I + 1 or more), f[:-1]+(x,)+s[:-1] with
    x >= 5 (n + I + 1, as just one of f, s ends in 2) or
    f[:-1]+(x,)+s[1:-1] with x >= 4 (2n - 1 or 2I + 1): three or more,
    and no rule of normseq._pattern_sums admits more than two.

    Two ends, a = (v, 2^[L-2], w) with v, w >= 3: b = (2^[v-2], L+1,
    2^[w-2]), and every instance has three or more but
    f[:-1]+(f[-1]+s[-1],)+rev(s)[1:-1] on (b, a), which is (2^[v-2], L+1,
    2^[w-3], w+2, 2^[L-2]).  It has length 3 only at v = w = 3, L = 2, and
    neither it nor its reverse has second entry 3 followed by only 2s
    unless L = 2 and w = 3; the other rules admit at most one entry other
    than 2.  Both exceptions are the twist seed (v, 3).

    One entry v >= 4 at index i of a length L >= 3: b = (2+i, 2^[v-3],
    L+1-i), and every instance has three or more, or has length 4 or more
    with second entry 3 neither way and a lone entry other than 2 of at
    least 6 (no single 4), which no rule admits.

    That leaves all 2s, one entry at lengths 1 and 2, a single 3 in a
    longer seed and the twist seeds, at lengths up to seq_bound.  By the
    row-start rule the longer ones are duals of kept seeds: 2^[L] of
    (L+1), (3,2^[L-1]) of (2,L+1) and (2^[L-1],3) of (L+1,2).  So are
    (2,2), the dual of (3), and (2,3), the dual of (3,2), which is why
    (v,2) starts at v = 3 and (2,v) at v = 4.  The interior 3,
    (2^[i],3,2^[j]), is the dual of the two-ends seed (i+2,j+2), which
    contributes only as the twist seed (i+2,3): its instances are the twist
    shape of index i, which the t_bound filter drops past t_bound.  The
    (v) range stops at seq_bound+2: the (w, a) merged cell of (seq_bound+3)
    is 2^[seq_bound+1], past the all-2s cut, and its one other kept
    instance, (7,2,2) at v = 5, is the merged cell + 1 of (4)."""
    for v in range(2, seq_bound + 4):
        if v <= seq_bound + 2:
            yield (v,)
        if v > 2:
            yield (v, 2)
        if v > 3:
            yield (2, v)
    for t in range(1, t_bound + 1):
        yield (t + 2, 3)


def _gofk_sequences(t_bound, seq_bound):
    """All template instances over the bounded dual pairs, each pair drawn
    once by its seed and tried in both orders, that match a fibered
    pattern shape, deduplicated.

    The two infinite families are cut off by their own knobs: all-2s
    sequences at seq_bound entries and twist-family sequences at index
    t_bound.  The fixed rows and the twist row t = -1 come from seeds of
    length at most 2, so seeds are drawn as for seq_bound 2 at least.  The
    merged cell of (2) <-> (2) is (), which has exponent sums but is no
    census sequence."""
    found = set()
    for a in _gofk_seeds(t_bound, max(seq_bound, 2)):
        b = riemenschneider_dual(a)
        for first, second in ((a, b), (b, a)):
            for seq in _template_instances(first, second):
                if not seq or seq in found:
                    continue
                if not gofk_exponent_sums(seq):
                    continue
                if all(e == 2 for e in seq) and len(seq) > seq_bound:
                    continue
                t = _is_twist_shape(seq)
                if t is not None and t > t_bound:
                    continue
                found.add(seq)
    return found


def _census_targets(t_bound, seq_bound):
    """The nine-family list restricted to what the bounded generation can
    reach: the fixed rows, the surgery-dual unknot family, and the
    one-parameter twist family (whose index ranges down to t = -1)."""
    triples = [(7, 3, 2), (13, 4, 3), (13, 9, 2), (18, 11, 5), (19, 3, 4),
               (27, 11, 4), (32, 7, 5)]
    triples += [(n + 1, n, 1) for n in range(1, seq_bound + 1)]
    triples += [(9 * t + 14, (-9) % (9 * t + 14), 3)
                for t in range(-1, t_bound + 1)]
    return {_canonical_entry(*triple) for triple in triples}


def gofklens_census(t_bound, seq_bound):
    """Assemble and cross-check the census of (p, q, k) triples.

    seq_bound (>= 0) limits the sequence length; t_bound (>= -1) is the top
    index of the twist family, independent of seq_bound.  Returns (results,
    counterexamples): the entries with the sequences that witness each, and
    an ("extra", entry) or ("missing", entry) row for each entry outside,
    or target not reached by, the nine-family list."""
    if seq_bound < 0:
        raise ValueError("seqmax must be >= 0")
    if t_bound < -1:
        raise ValueError("tmax must be >= -1")
    entries = {}

    def add(entry, witness):
        entries.setdefault(entry, set()).add(witness)

    for seq, label, k in _SMALL_TYPE_ROWS:
        add(_canonical_entry(label.p, label.q, k), format_items(seq))

    # the rest from the template generation.  The dual class k solves
    # -k^2 = q (mod p); the two infinite families carry their printed
    # classes (the core k = 1, respectively k = 3), which matters at
    # composite orders where the congruence has extra square roots.
    for seq in sorted(_gofk_sequences(t_bound, seq_bound)):
        lens = to_lens(seq)
        p, q = lens.p, lens.q
        ks = [k for k in range(1, p) if (-k * k) % p == q]
        if all(e == 2 for e in seq):
            ks = [k for k in ks if k in (1, p - 1)]
        elif _is_twist_shape(seq) is not None:
            ks = [k for k in ks if k in (3, p - 3)]
        for k in ks:
            add(_canonical_entry(p, q, k), format_items(seq))

    targets = _census_targets(t_bound, seq_bound)
    ordered = tuple(sorted(entries))
    bad = [("extra", e) for e in ordered if e not in targets]
    bad += [("missing", t) for t in sorted(targets - entries.keys())]
    return ({"entries": ordered,
             "witnesses": {e: tuple(sorted(entries[e])) for e in ordered}},
            tuple(bad))


# ---------------------------------------------------------------------------
# Alternative-surgery elimination.  Starting from the census, keep the lens
# spaces that could be an alternative (distance-one) lens surgery on a knot
# embedded in a genus one fiber, then eliminate candidates through the
# quadratic congruence and the genus obstruction.
# ---------------------------------------------------------------------------


def alt_gofk_pipeline():
    """Reproduce the elimination that pins down the two knots with an
    alternative surgery.

    Returns (results, counterexamples): each stage's survivors and the
    data that decided them, and a row for each stage whose outcome is not
    the expected one."""
    bad = []
    census, census_bad = gofklens_census(t_bound=6, seq_bound=6)
    if census_bad:
        bad.append(("census",) + tuple(
            tuple(e for kind, e in census_bad if kind == want)
            for want in ("extra", "missing")))

    # lens-space level: the census's oriented lens spaces (p, q), in order,
    # with (a) even order at least 18, (b) not a surgery giving L(n, +-1)
    stage_ab = sorted({(e.p, e.q) for e in census["entries"]
                       if e.p % 2 == 0 and e.p >= 18
                       and e.q not in (1, e.p - 1)})

    # (c) a genus one fibered knot with twist exponent sum in {-1, 1, 3};
    # both orientations are consulted because the tabulated chart reads the
    # sequence of the mirror for the twist family.
    exponent_info = {}
    survivors = []
    for p, q in stage_ab:
        lens = LensSpace(p, q)
        own = gofk_exponent_sums(norm_sequence_of(lens))
        mir = gofk_exponent_sums(norm_sequence_of(mirror(lens)))
        keep = bool((own | mir) & {-1, 1, 3})
        exponent_info[lens] = {
            "own": tuple(sorted(own)), "mirror": tuple(sorted(mir)),
            "kept": keep,
        }
        if keep:
            survivors.append(lens)
    survivor_orders = tuple(l.p for l in survivors)
    if survivor_orders != (18, 32, 50, 68):
        bad.append(("exponent-survivors", survivor_orders))

    # quadratic congruence stage: odd candidate surgery slopes p = P -+ 1,
    # at least 19 (odd lens surgeries of smaller order come from torus knots
    # which have no alternative surgery)
    star_stage = {}
    genus_stage = {}
    final = []
    for lens in survivors:
        cands = {}
        for p in (lens.p - 1, lens.p + 1):
            if p < 19:
                cands[p] = {"excluded": "order below 19 forces a torus knot"}
                continue
            sols = {eps: star_solutions(p, eps) for eps in (1, -1)}
            knots = [SimpleKnot(p, q, k)
                     for eps in (1, -1) for k, q in sols[eps]]
            classes = _equivalence_classes(knots)
            cands[p] = {
                "solutions": {"+1": sols[1], "-1": sols[-1]},
                "classes": classes,
                "genera": tuple(sorted({genus_primitive(k) for k in knots})),
            }
        star_stage[lens] = cands

        alive = [p for p, info in cands.items() if info.get("solutions")
                 and (info["solutions"]["+1"] or info["solutions"]["-1"])]
        if lens.p in (50, 68):
            # twist-family branches die by the genus obstruction
            target_genus = 17 if lens.p == 50 else 25
            hits = knots_with_genus(lens, target_genus)
            genus_stage[lens] = {
                "genus": target_genus,
                "primitive_simple_knots": hits,
            }
            if hits:
                bad.append(("genus-stage", lens, hits))
            continue
        final.extend((p, lens) for p in alive)

    final.sort(key=lambda pl: pl[0])
    want = [(19, LensSpace(18, 11)), (31, LensSpace(32, 7))]
    if [p for p, _ in final] != [p for p, _ in want] or any(
            not homeo_unoriented(g, w) for (_, g), (_, w) in zip(final, want)):
        bad.append(("final", tuple(final)))

    knot_names = {19: "pretzel P(-2,3,7)",
                  31: "+1-surgery dual on the Whitehead sister link"}
    final_named = tuple({"p": p, "alternative_lens": lens,
                         "knot": knot_names.get(p, "?")} for p, lens in final)

    return ({"census_ok": not census_bad,
             "survivors": tuple(survivors),
             "exponent_filter": exponent_info,
             "star_stage": star_stage,
             "genus_stage": genus_stage,
             "final": final_named},
            tuple(bad))


def _equivalence_classes(knots):
    """The knots grouped by equivalence class, in order of first member."""
    classes = {}
    for k in knots:
        classes.setdefault(canonical_triple(k.p, k.q, k.k), []).append(k)
    return list(classes.values())


# ---------------------------------------------------------------------------
# Once-punctured-torus surgery catalog: six families of surgery-dual pairs.
# ---------------------------------------------------------------------------


# family: its two members, each (upper slope, lower slope, lens label) at
# the member's index i.  A slope is a fixed string or a pair (a, b) that
# stands for (a*i + b)/i; a label (pa, pb, qa, qb) is L(pa*i + pb, qa*i + qb).
_OPTSURG = {
    1: (("-1", (-6, 1), (6, -1, 2, -1)),) * 2,
    2: (("-2", (-4, 1), (8, -2, 2, -1)),) * 2,
    3: (("-3", (-3, 1), (9, -3, 3, -2)),) * 2,
    4: (((-3, 1), "-3", (9, -3, 3, -2)), ((-3, 1), "inf", (3, -1, -1, 0))),
    5: (((-4, 1), "-2", (8, -2, 2, -1)), ((-4, 1), "inf", (4, -1, -1, 0))),
    6: (((-6, 1), "-1", (6, -1, 2, -1)), ((-6, 1), "inf", (6, -1, -1, 0))),
}


def _optsurg_slope(s, i):
    return s if isinstance(s, str) else ExtRational(s[0] * i + s[1], i)


def optsurg_catalog(family, k, ell=None):
    """The surgery-dual pair of the given catalog family.

    Families 1-3 take an optional second index ell for the partner; families
    4-6 pair a knot with its inf-filling partner, need k != 0 and take no
    second index."""
    if family not in _OPTSURG:
        raise ValueError("family must be 1..6")
    if family > 3 and ell is not None:
        raise ValueError("only families 1-3 take a second index")
    if family > 3 and k == 0:
        raise ValueError(f"family {family} needs k != 0")
    return tuple((f"K^({_optsurg_slope(up, i)})_({_optsurg_slope(low, i)})",
                  LensSpace(pa * i + pb, qa * i + qb))
                 for (up, low, (pa, pb, qa, qb)), i
                 in zip(_OPTSURG[family], (k, k if ell is None else ell)))


def figure_eight_sister_triple():
    """The three lens fillings of the s = -5 member, with the catalog
    families that reproduce each."""
    f5 = optsurg_catalog(5, -1)
    f6 = optsurg_catalog(6, 1)
    f1 = optsurg_catalog(1, 1)
    f2 = optsurg_catalog(2, -1)
    return {
        "family5(k=-1)": f5,
        "family6(k=1)": f6,
        "family1(k=1)": f1,
        "family2(k=-1)": f2,
        "triple": tuple(sorted({str(f5[0][1]), str(f5[1][1]), str(f6[0][1])})),
    }
