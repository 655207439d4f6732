"""The five-cusp quotient tangle: fillings, symmetries, simplification
predicates and the exhaustive two-bridge-triple verifier.

A filling of the pentangle is a tuple (nw, ne, sw, se[, x]) of rational
tangle slopes.  Filling the double branched cover picture instead gives a
chain-link filling (a1, ..., a5); the two coordinate systems translate by

    chain(a1..a5) = Sigma(P(a2, 1-1/a1, 1-1/a4, a3, a5-1))

The key sweep: if a 4-tuple admits two-bridge fillings at all three of
x = 0, inf, -1 then it must "simplify" (be non-hyperbolic or factor through
the three-cusp quotient tangle or its mirror).  The verifier checks the
necessary conditions for two-bridgeness case by case over all slopes of
bounded height and confirms there are no counterexamples.
"""

from dataclasses import dataclass
from enum import Enum
from itertools import product

from .rationals import (INF, ZERO, ExtRational, cf_eval, corot_map,
                        one_minus_reciprocal, rat, reciprocal, rot_map, shift)
from .tangle import (MontesinosLink, is_reciprocal_of_integer,
                     montesinos_is_two_bridge)

MINUS_ONE = rat(-1)


@dataclass(frozen=True, slots=True)
class P5Filling:
    nw: ExtRational
    ne: ExtRational
    sw: ExtRational
    se: ExtRational
    x: ExtRational = None

    def corners(self):
        return (self.nw, self.ne, self.sw, self.se)

    def __str__(self):
        parts = [str(s) for s in self.corners()]
        if self.x is not None:
            parts.append(str(self.x))
        return "P(" + ",".join(parts) + ")"


@dataclass(frozen=True, slots=True)
class M5Filling:
    a1: ExtRational
    a2: ExtRational
    a3: ExtRational
    a4: ExtRational
    a5: ExtRational

    def slopes(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a5)


def m5_to_p5(m):
    """Chain coordinates to tangle coordinates."""
    return P5Filling(
        nw=m.a2,
        ne=one_minus_reciprocal(m.a1),
        sw=one_minus_reciprocal(m.a4),
        se=m.a3,
        x=shift(m.a5, -1),
    )


def p5_to_m5(f):
    """Tangle coordinates to chain coordinates; inverse of m5_to_p5."""
    if f.x is None:
        raise ValueError("need all five slopes")
    return M5Filling(
        a1=rot_map(f.ne),
        a2=f.nw,
        a3=f.se,
        a4=rot_map(f.sw),
        a5=shift(f.x, 1),
    )


# ---------------------------------------------------------------------------
# Symmetries.  The three slope-preserving involutions swap corner pairs; the
# order-3 rotation fixes the se corner while transforming slopes by
# x -> 1/(1-x) (and the fifth slope by x -> -1/(1+x)).  The mirror symmetry
# reciprocates every slope and rotates the corners a quarter turn; it
# exchanges the two factoring condition families below, and its square is
# the front-back involution.
# ---------------------------------------------------------------------------


def swap_lr(f):
    return P5Filling(f.ne, f.nw, f.se, f.sw, f.x)


def swap_tb(f):
    return P5Filling(f.sw, f.se, f.nw, f.ne, f.x)


def swap_fb(f):
    return P5Filling(f.se, f.sw, f.ne, f.nw, f.x)


def rot3(f):
    x = corot_map(f.x) if f.x is not None else None
    return P5Filling(rot_map(f.ne), rot_map(f.sw), rot_map(f.nw),
                     rot_map(f.se), x)


def rot3_fix_ne(f):
    """The other order-3 rotation: fixes the ne corner, permutes nw,sw,se."""
    return swap_tb(rot3(swap_tb(f)))


def mirror_sym(f):
    x = reciprocal(f.x) if f.x is not None else None
    return P5Filling(reciprocal(f.ne), reciprocal(f.se), reciprocal(f.nw),
                     reciprocal(f.sw), x)


SYMMETRIES = {
    "swapLR": swap_lr,
    "swapTB": swap_tb,
    "swapFB": swap_fb,
    "rot3": rot3,
    "mirror": mirror_sym,
}


def symmetry(f, which):
    try:
        return SYMMETRIES[which](f)
    except KeyError:
        raise ValueError(f"unknown symmetry {which!r}") from None


# ---------------------------------------------------------------------------
# Condition lists.  Pairs are unordered multisets of slope values, attached
# to one of the three corner pairings:
#   pairing A: {nw,ne} and {sw,se}
#   pairing B: {nw,sw} and {ne,se}
#   pairing C: {nw,se} and {sw,ne}
# The base five P3-factoring pairs sit in pairing A; applying the order-3
# rotation twice fills pairings B and C, and reciprocation produces the
# mirror lists.  (The transcription of these lists carries one slip in
# the pairing-C entry; the symmetry-generated value is used and the tests
# record the discrepancy.)
# ---------------------------------------------------------------------------


def _key(u, v):
    return tuple(sorted(((u.num, u.den), (v.num, v.den))))


def _pairset(pairs):
    return frozenset(_key(u, v) for u, v in pairs)


def _map_pairs(pairs, fn):
    return [(fn(u), fn(v)) for u, v in pairs]


_P3_BASE = [
    (rat(2), rat(-2)),
    (rat(-1), rat(3, 2)),
    (rat(1, 2), rat(1, 3)),
    (rat(2), rat(1, 2)),
    (rat(-1), rat(-1)),
]
_P3_A = _P3_BASE
_P3_B = _map_pairs(_P3_A, rot_map)
_P3_C = _map_pairs(_P3_B, rot_map)
_MIR_A = _map_pairs(_P3_B, reciprocal)
_MIR_B = _map_pairs(_P3_A, reciprocal)
_MIR_C = _map_pairs(_P3_C, reciprocal)

P3_LISTS = tuple(_pairset(p) for p in (_P3_A, _P3_B, _P3_C))
MIRROR_P3_LISTS = tuple(_pairset(p) for p in (_MIR_A, _MIR_B, _MIR_C))

_NONHYP_A = _pairset([(rat(-1), rat(2)), (rat(1, 2), rat(1, 2))])
_NONHYP_B = _pairset([(rat(-1), rat(1, 2)), (rat(2), rat(2))])
_NONHYP_C = _pairset([(rat(1, 2), rat(2)), (rat(-1), rat(-1))])
NONHYP_LISTS = (_NONHYP_A, _NONHYP_B, _NONHYP_C)

_TRIVIAL = frozenset(((0, 1), (1, 1), (1, 0)))


def _corner_pairs(f):
    """The six corner pairs grouped by pairing."""
    nw, ne, sw, se = f.corners()
    return (
        (_key(nw, ne), _key(sw, se)),
        (_key(nw, sw), _key(ne, se)),
        (_key(nw, se), _key(sw, ne)),
    )


def _meets(groups, lists):
    """Whether a corner pair lies in the condition list of its pairing."""
    return any(p in cond for pair_group, cond in zip(groups, lists)
               for p in pair_group)


def is_nonhyperbolic(f):
    """True when a listed degeneration is forced by the four corner slopes."""
    return (any((s.num, s.den) in _TRIVIAL for s in f.corners())
            or _meets(_corner_pairs(f), NONHYP_LISTS))


class P3Factor(Enum):
    NO = "no"
    P3 = "P3"
    MIRROR_P3 = "mirrorP3"
    BOTH = "both"


# (factors through P3, factors through its mirror) -> P3Factor
_P3_FACTOR = {(False, False): P3Factor.NO, (True, False): P3Factor.P3,
              (False, True): P3Factor.MIRROR_P3, (True, True): P3Factor.BOTH}


def factors_through_P3(f):
    """Table lookup over the factoring condition lists (and mirror lists)."""
    groups = _corner_pairs(f)
    return _P3_FACTOR[_meets(groups, P3_LISTS),
                      _meets(groups, MIRROR_P3_LISTS)]


def simplifies(f):
    """Non-hyperbolic, or factors through the three-cusp tangle or mirror."""
    return is_nonhyperbolic(f) or factors_through_P3(f) is not P3Factor.NO


# ---------------------------------------------------------------------------
# Montesinos presentations.  When a corner slope satisfies the rationality
# constraint of a chart row, the corresponding filling at x in {0, inf, -1}
# is a Montesinos link whose factors are evaluated by rational-tail
# continued fractions.  One base row per x; the other rows are its images
# under the three x-preserving involutions.
# ---------------------------------------------------------------------------


def _h_param(s):
    # solve s = [0,h] = -1/h for integer h (h = 0 gives inf), given
    # is_reciprocal_of_integer(s)
    if s.is_infinite:
        return 0
    return -s.den * s.num  # s.num is +-1 here


def _is_one_minus_reciprocal(s):
    # s = [1,m] = 1 - 1/m for integer m (m = 0 gives inf)
    return s.is_infinite or abs(s.den - s.num) == 1


def _m_param(s):
    # solve s = 1 - 1/m
    if s.is_infinite:
        return 0
    return s.den * (s.den - s.num)  # den - num is +-1 here


def _row_west(t):
    """x = 0 row: needs nw = [0,h]; gives Q([-1,h,sw], [ne], [se])."""
    if not is_reciprocal_of_integer(t.nw):
        return None
    return MontesinosLink((cf_eval([-1, _h_param(t.nw), t.sw]), t.ne, t.se))


def _row_north(t):
    """x = inf row: needs nw = [n]; gives Q([1,n+ne], [0,sw], [0,se])."""
    if not t.nw.is_integer:
        return None
    return MontesinosLink((
        cf_eval([1, shift(t.ne, t.nw.num)]),
        cf_eval([0, t.sw]),
        cf_eval([0, t.se]),
    ))


def _row_front(t):
    """x = -1 row: needs ne = [1,m]; gives Q([1,nw], [m,1,sw], [-1+se])."""
    if not _is_one_minus_reciprocal(t.ne):
        return None
    return MontesinosLink((
        cf_eval([1, t.nw]),
        cf_eval([_m_param(t.ne), 1, t.sw]),
        shift(t.se, -1),
    ))


_BASE_ROWS = {(0, 1): _row_west, (1, 0): _row_north, (-1, 1): _row_front}
_KLEIN = (lambda f: f, swap_lr, swap_tb, swap_fb)


def montesinos_presentations(f, x):
    """All Montesinos presentations of the x-filling, x in {0, inf, -1}."""
    key = (x.num, x.den)
    if key not in _BASE_ROWS:
        raise ValueError("x must be one of 0, inf, -1")
    row = _BASE_ROWS[key]
    out = []
    for g in _KLEIN:
        link = row(g(f))
        if link is not None:
            out.append(link)
    return out


def two_bridge_necessary(f, x):
    """Necessary condition for the x-filling to be a two-bridge link:
    some Montesinos presentation exists with a reciprocal-integer factor."""
    return any(montesinos_is_two_bridge(link)
               for link in montesinos_presentations(f, x))


X_FILLINGS = (ZERO, INF, MINUS_ONE)


# ---------------------------------------------------------------------------
# Case bookkeeping for the sixteen constraint triples (used by the tests
# that check the two order-3 symmetries permute the cases as expected).
# ---------------------------------------------------------------------------

ROW_CONSTRAINTS = {
    "WxNW": lambda f: is_reciprocal_of_integer(f.nw),
    "WxSW": lambda f: is_reciprocal_of_integer(f.sw),
    "ExNE": lambda f: is_reciprocal_of_integer(f.ne),
    "ExSE": lambda f: is_reciprocal_of_integer(f.se),
    "NxNW": lambda f: f.nw.is_integer,
    "NxNE": lambda f: f.ne.is_integer,
    "FxNE": lambda f: _is_one_minus_reciprocal(f.ne),
    "FxSW": lambda f: _is_one_minus_reciprocal(f.sw),
}

# one x = 0 row, one x = inf row and one x = -1 row per case, numbered 1-16
CASE_TRIPLES = dict(enumerate(product(("WxNW", "WxSW", "ExNE", "ExSE"),
                                      ("NxNW", "NxNE"), ("FxNE", "FxSW")), 1))


def case_holds(case, f):
    return all(ROW_CONSTRAINTS[row](f) for row in CASE_TRIPLES[case])


# ---------------------------------------------------------------------------
# Slope enumeration: Stern-Brocot level order over Qhat, restricted to
# height max(|num|, den) <= bound.  Deterministic, so sweep reports are
# reproducible and partitions are stable.
# ---------------------------------------------------------------------------


def stern_brocot_slopes(bound):
    if bound < 1:
        raise ValueError("bound must be >= 1")
    out = [INF, ZERO]
    frontier = [((0, 1), (1, 0))]
    while frontier:
        nxt = []
        level = []
        for (a, b), (c, d) in frontier:
            p, q = a + c, b + d
            if p <= bound and q <= bound:
                level.append((p, q))
                nxt.append(((a, b), (p, q)))
                nxt.append(((p, q), (c, d)))
        out.extend(ExtRational(p, q) for p, q in level)
        out.extend(ExtRational(-p, q) for p, q in level)
        frontier = nxt
    return out


# ---------------------------------------------------------------------------
# The sweep.  Masks are Python ints over the slope list: bit s refers to
# slope s, in the se position unless said otherwise.  Each of the three
# necessary conditions can pass only through a corner in a thin slope set,
#
#     T0 = {inf} u {-1/h},    Tinf = the integers,    Tm1 = {inf} u {1-1/m},
#
# for x = 0, inf and -1, with masks M0, Minf and Mm1.  For fixed corners
# nw, ne, sw = i, j, k each condition is then `full`, its thin mask, or one
# symmetric pair row V[s], the slopes t for which the chart-row factor of
# (s, t) or of (t, s) is the reciprocal of an integer:
#
#             value     unless           then full when               else
#     x0      V0[j]     i or k in T0     j in T0 or k in V0[i]        M0
#     xinf    Vinf[k]   i or j in Tinf   k in Tinf or j in Vinf[i]    Minf
#     xm1     Vm1[i]    j or k in Tm1    i in Tm1 or k in Vm1[j]      Mm1
#
# For fixed nw, ne the sw corners split into at most nine cells on which
# x0 & xm1 is one constant c.  In a cell the need mask is c & Vinf[k], or c
# and c & Minf on the two sides of the sw corners where xinf is full; since
# Vinf is symmetric, the k with Vinf[k] & c != 0 are the union of Vinf[s]
# over s in c.  So the kernel visits only the triples whose need mask is
# nonzero.  It reproduces the object-level predicates above, which the test
# suite cross-checks, as it does against the per-triple kernel this one
# replaced (tests/pentangle_oracle.py).
# ---------------------------------------------------------------------------


def _bits(mask):
    """Indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _SweepTables:
    def __init__(self, slopes):
        n = len(slopes)
        self.n = n
        self.full = (1 << n) - 1

        def mask(flags):
            m = 0
            for j, flag in enumerate(flags):
                if flag:
                    m |= 1 << j
            return m

        self.in0 = [is_reciprocal_of_integer(s) for s in slopes]
        self.m0 = mask(self.in0)
        self.ininf = [s.is_integer for s in slopes]
        self.minf = mask(self.ininf)
        self.inm1 = [_is_one_minus_reciprocal(s) for s in slopes]
        self.mm1 = mask(self.inm1)
        self.triv = [(s.num, s.den) in _TRIVIAL for s in slopes]
        self.triv_mask = mask(self.triv)

        def pair_rows(thin, factor):
            rows = [0] * n
            for i, s in enumerate(slopes):
                if not thin[i]:
                    continue
                for j, t in enumerate(slopes):
                    if is_reciprocal_of_integer(factor(s, t)):
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
            return rows

        self.v0 = pair_rows(self.in0,
                            lambda s, t: cf_eval([-1, _h_param(s), t]))
        self.vinf = pair_rows(self.ininf,
                              lambda s, t: cf_eval([1, shift(t, s.num)]))
        self.vm1 = pair_rows(self.inm1,
                             lambda s, t: cf_eval([_m_param(s), 1, t]))
        self.fulls = [self.full] * n
        self._near = {}

        # symmetric rows of the simplification pairs, one per pairing
        index = {(s.num, s.den): i for i, s in enumerate(slopes)}

        def group_rows(*conds):
            rows = [0] * n
            for cond in conds:
                for u, v in cond:
                    if u in index and v in index:
                        rows[index[u]] |= 1 << index[v]
                        rows[index[v]] |= 1 << index[u]
            return rows

        self.ga, self.gb, self.gc = (
            group_rows(*conds)
            for conds in zip(NONHYP_LISTS, P3_LISTS, MIRROR_P3_LISTS))

    def near(self, mask):
        """The sw corners k whose Vinf[k] meets mask."""
        out = self._near.get(mask)
        if out is None:
            out = 0
            for s in _bits(mask):
                out |= self.vinf[s]
            self._near[mask] = out
        return out


def _pair_masks(tb, i):
    """For nw = i, yield (j, parts, simp_k, simp_base) for every ne = j.

    parts lists (cand, c, rows) with disjoint sw masks cand: the need mask
    of the triple (i, j, k) is c & rows[k] when k is in a cand, else 0.
    The tuples whose sw corner k is in simp_k all simplify; otherwise
    (i, j, k, se) simplifies when se is in simp_base | ga[k]."""
    n, full = tb.n, tb.full
    m0, minf, mm1 = tb.m0, tb.minf, tb.mm1
    v0, vinf, vm1, fulls = tb.v0, tb.vinf, tb.vm1, tb.fulls
    ga, gb, gc, triv, triv_mask = tb.ga, tb.gb, tb.gc, tb.triv, tb.triv_mask
    v0i, vinfi, vm1i = v0[i], vinf[i], vm1[i]
    # sw corners where x0 is full or M0; elsewhere it is V0[ne]
    a0 = full if tb.in0[i] else m0
    i_inf, i_m1 = tb.ininf[i], tb.inm1[i]
    i_simp = triv[i]
    for j in range(n):
        v0j = v0[j]
        # sw corners where xm1 is full or Mm1; elsewhere it is Vm1[nw]
        am1 = full if tb.inm1[j] else mm1
        f0 = a0 if tb.in0[j] else a0 & v0i
        fm1 = am1 if i_m1 else am1 & vm1[j]
        # sw corners where xinf is full; None when xinf is Vinf[sw]
        if i_inf or tb.ininf[j]:
            finf = full if (vinfi >> j) & 1 else minf
        else:
            finf = None
        parts = []
        for k0, x0 in ((f0, full), (a0 & ~f0, m0), (full & ~a0, v0j)):
            if not k0:
                continue
            for km1, xm1 in ((fm1, full), (am1 & ~fm1, mm1),
                             (full & ~am1, vm1i)):
                cell = k0 & km1
                if not cell or not (c := x0 & xm1):
                    continue
                if finf is None:
                    parts.append((cell & tb.near(c), c, vinf))
                elif c & minf:
                    parts.append((cell & finf, c, fulls))
                    parts.append((cell & ~finf, c & minf, fulls))
                else:
                    parts.append((cell & finf, c, fulls))
        if i_simp or triv[j] or (ga[i] >> j) & 1:
            simp_k = full
        else:
            simp_k = triv_mask | gb[i] | gc[j]
        yield j, parts, simp_k, triv_mask | gb[j] | gc[i]


def _sweep_chunk(tb, i_lo, i_hi):
    ga = tb.ga
    necessary = 0
    simplified = 0
    counterexamples = []
    for i in range(i_lo, i_hi):
        for j, parts, simp_k, simp_base in _pair_masks(tb, i):
            for cand, c, rows in parts:
                while cand:
                    low = cand & -cand
                    cand ^= low
                    k = low.bit_length() - 1
                    need = c & rows[k]
                    count = need.bit_count()
                    necessary += count
                    if simp_k & low:
                        simplified += count
                        continue
                    good = need & (simp_base | ga[k])
                    simplified += good.bit_count()
                    for se in _bits(need & ~good):
                        counterexamples.append((i, j, k, se))
    counterexamples.sort()
    checked = (i_hi - i_lo) * tb.n ** 3
    return checked, necessary, simplified, counterexamples


@dataclass(frozen=True)
class SimplificationReport:
    bound: int
    slope_count: int
    tuples_checked: int
    necessary_all_three: int
    simplified: int
    counterexamples: tuple

    @property
    def ok(self):
        return not self.counterexamples


def verify_simplification(bound, jobs=1):
    """Sweep all slope 4-tuples of height <= bound; every tuple passing the
    two-bridge necessary conditions at x = 0, inf and -1 must simplify.

    Returns a report whose counterexample list is expected to be empty."""
    if bound < 2:
        raise ValueError("bound must be >= 2")
    slopes = stern_brocot_slopes(bound)
    n = len(slopes)
    tables = _SweepTables(slopes)
    chunks = _partition(n, jobs)
    if jobs <= 1 or len(chunks) <= 1:
        results = [_sweep_chunk(tables, lo, hi) for lo, hi in chunks]
    else:
        # forked workers inherit the tables; only the nw ranges are sent.
        # Imported here because it costs every CLI process its import time.
        from multiprocessing import get_context
        with get_context("fork").Pool(jobs, initializer=_adopt_tables,
                                      initargs=(tables,)) as pool:
            results = pool.map(_pool_chunk, chunks)
    checked = sum(r[0] for r in results)
    necessary = sum(r[1] for r in results)
    simplified = sum(r[2] for r in results)
    ces = []
    for r in results:
        for i, j, k, se in r[3]:
            ces.append((str(slopes[i]), str(slopes[j]),
                        str(slopes[k]), str(slopes[se])))
    return SimplificationReport(
        bound=bound,
        slope_count=n,
        tuples_checked=checked,
        necessary_all_three=necessary,
        simplified=simplified,
        counterexamples=tuple(ces),
    )


_worker_tables = None


def _adopt_tables(tables):
    global _worker_tables
    _worker_tables = tables


def _pool_chunk(bounds):
    return _sweep_chunk(_worker_tables, *bounds)


def _partition(n, jobs):
    jobs = max(1, min(jobs, n))
    step = -(-n // jobs)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]
