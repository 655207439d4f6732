"""References for the counting kernel in surgeryforge.pentangle and its
tables, one per property; property: reference (inputs the tests run it at).

- Whole sweep: _sweep_chunk, the kernel before the thin-set rewrite, on its
  own _SweepTables with pair rows built from the chart rows'
  continued-fraction words, one mask row per (nw, ne) (bounds 2-8, plain
  and per patch set of emptied lists, once per patch set and bound, from
  necessary_rows made once per bound; its masks also the kernel's masks,
  bound 5).
- One chunk: least_corner_chunk, which visits the kernel's walk from the
  given nw corners tuple by tuple through _visit_pair_masks on the
  library's _SweepTables, so it checks the walk and the weights, not the
  tables (each walked corner once: bounds 2-6 and 10).
- Orbit images of walked counterexamples: orbit_images, on KLEIN_GETTERS
  (each whole walk that the per-triple oracle sweeps).
- ne-corner groups: corner_groups, as _SweepTables first built them, a
  corner on a simplification pair alone (bounds 2-30).
- Pair rows solved from _ROWS: scan_pair_rows (bounds 2-40).
- Chart rows: montesinos_presentations and ROW_CONSTRAINTS on the rows as
  continued-fraction words with their own parameter solvers (height 2).
- Symmetries no command reads: swap_lr, swap_tb and swap_fb on P5Filling
  fields (the library's _KLEIN as getters), rot3, rot3_fix_ne, mirror_sym
  and the chain coordinates m5_to_p5 and p5_to_m5."""

from operator import itemgetter

from surgeryforge.pentangle import (MIRROR_P3_LISTS, NONHYP_LISTS,
                                    P3_LISTS, P5Filling, _TRIVIAL, _bits,
                                    _key)
from surgeryforge.rationals import (INF, ZERO, _mobius, cf_eval, cf_step, rat,
                                    reciprocal, rot_map)
from surgeryforge.tangle import (MontesinosLink, is_reciprocal_of_integer,
                                 is_reciprocal_of_integer as _is_neg_reciprocal)

MINUS_ONE = rat(-1)
X_FILLINGS = (ZERO, INF, MINUS_ONE)


def corot_map(x):
    """The order-3 map x -> -1/(1 + x)."""
    return _mobius(x, 0, -1, 1, 1)


def shift(x, n):
    """x -> x + n for an integer n; fixes inf."""
    return _mobius(x, 1, n, 0, 1)


# ---------------------------------------------------------------------------
# The three x-preserving involutions on the corners of a filling, the
# library's _KLEIN written out; with the identity they form KLEIN, in the
# library's order.
# ---------------------------------------------------------------------------


def swap_lr(f):
    return P5Filling(f.ne, f.nw, f.se, f.sw)


def swap_tb(f):
    return P5Filling(f.sw, f.se, f.nw, f.ne)


def swap_fb(f):
    return P5Filling(f.se, f.sw, f.ne, f.nw)


KLEIN = (lambda f: f, swap_lr, swap_tb, swap_fb)

# each swap on a tuple of corners or corner indices, in KLEIN's order: the
# getter of the corner positions that the swap reads
KLEIN_GETTERS = tuple(itemgetter(*g(P5Filling(0, 1, 2, 3)).corners())
                      for g in KLEIN)


# ---------------------------------------------------------------------------
# The chart rows as words.  One base row per x; the other rows are its
# images under the three x-preserving involutions.
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


_BASE_ROWS = {ZERO: _row_west, INF: _row_north, MINUS_ONE: _row_front}


def montesinos_presentations(f, x):
    """All Montesinos presentations of the x-filling, x in {0, inf, -1}."""
    out = []
    for g in KLEIN:
        link = _BASE_ROWS[x](g(f))
        if link is not None:
            out.append(link)
    return out


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


# Filling the double branched cover picture gives a chain-link filling
# (a1, ..., a5); it translates to the tangle filling and the fifth slope x by
#
#     chain(a1..a5) = Sigma(P(a2, 1-1/a1, 1-1/a4, a3, a5-1))


def m5_to_p5(m):
    """Chain coordinates (a1, ..., a5) to the pair (filling, x)."""
    a1, a2, a3, a4, a5 = m
    return (P5Filling(nw=a2, ne=cf_step(1, a1), sw=cf_step(1, a4), se=a3),
            shift(a5, -1))


def p5_to_m5(f, x):
    """The filling f with fifth slope x to chain coordinates (a1, ..., a5);
    inverse of m5_to_p5."""
    return (rot_map(f.ne), f.nw, f.se, rot_map(f.sw), shift(x, 1))


# The order-3 rotation fixes the se corner while transforming the corner
# slopes by x -> 1/(1-x) and the fifth slope by corot_map.  The mirror
# symmetry reciprocates every slope and rotates the corners a quarter turn;
# it exchanges the plain and mirror factoring lists, and its square is
# swap_fb.


def rot3(f):
    return P5Filling(rot_map(f.ne), rot_map(f.sw), rot_map(f.nw),
                     rot_map(f.se))


def rot3_fix_ne(f):
    """The other order-3 rotation: fixes the ne corner, permutes nw,sw,se."""
    return swap_tb(rot3(swap_tb(f)))


def mirror_sym(f):
    return P5Filling(reciprocal(f.ne), reciprocal(f.se), reciprocal(f.nw),
                     reciprocal(f.sw))


class _SweepTables:
    def __init__(self, slopes):
        n = len(slopes)
        self.slopes = slopes
        self.n = n
        self.full = (1 << n) - 1

        def mask(flags):
            m = 0
            for j, flag in enumerate(flags):
                if flag:
                    m |= 1 << j
            return m

        rec = [is_reciprocal_of_integer(s) for s in slopes]
        self.rec = rec
        self.rec_mask = mask(rec)
        self.c0 = [_is_neg_reciprocal(s) for s in slopes]
        self.c0_mask = mask(self.c0)
        self.cinf = [s.is_integer for s in slopes]
        self.cinf_mask = mask(self.cinf)
        self.cm1 = [_is_one_minus_reciprocal(s) for s in slopes]
        self.cm1_mask = mask(self.cm1)
        self.z = [s.den == 1 for s in slopes]  # [0,s] reciprocal-integer
        self.z_mask = mask(self.z)
        self.r1m = [is_reciprocal_of_integer(cf_eval([1, s])) for s in slopes]
        self.r1m_mask = mask(self.r1m)
        self.r3 = [is_reciprocal_of_integer(shift(s, -1)) for s in slopes]
        self.r3_mask = mask(self.r3)
        self.triv = [(s.num, s.den) in _TRIVIAL for s in slopes]
        self.triv_mask = mask(self.triv)

        def pair_rows(enabled, factor):
            rows = [0] * n
            for i, s in enumerate(slopes):
                if not enabled[i]:
                    continue
                rows[i] = mask(is_reciprocal_of_integer(factor(s, t))
                               for t in slopes)
            return rows

        self.t0 = pair_rows(self.c0,
                            lambda s, t: cf_eval([-1, _h_param(s), t]))
        self.tinf = pair_rows(self.cinf,
                              lambda s, t: cf_eval([1, shift(t, s.num)]))
        self.tm1 = pair_rows(self.cm1,
                             lambda s, t: cf_eval([_m_param(s), 1, t]))
        self.t0T = self._transpose(self.t0)
        self.tinfT = self._transpose(self.tinf)
        self.tm1T = self._transpose(self.tm1)

        def group_rows(*conds):
            rows = [0] * n
            for i, s in enumerate(slopes):
                m = 0
                for j, t in enumerate(slopes):
                    key = _key(s, t)
                    if any(key in cond for cond in conds):
                        m |= 1 << j
                rows[i] = m
            return rows

        self.ga, self.gb, self.gc = (
            group_rows(NONHYP_LISTS[p], P3_LISTS[p], MIRROR_P3_LISTS[p])
            for p in range(3))

    def _transpose(self, rows):
        cols = [0] * self.n
        for i, row in enumerate(rows):
            j = 0
            while row:
                if row & 1:
                    cols[j] |= 1 << i
                row >>= 1
                j += 1
        return cols


def _necessary_row(tb, i, j):
    """se-bit masks of the three necessary conditions for fixed nw, ne and
    each sw corner k, in order."""
    full, rec, rec_mask = tb.full, tb.rec, tb.rec_mask
    c0, t0, c0_mask = tb.c0, tb.t0, tb.c0_mask
    z, z_mask, cinf, tinf, cinf_mask = (tb.z, tb.z_mask, tb.cinf, tb.tinf,
                                        tb.cinf_mask)
    r1m, r3, cm1, tm1, cm1_mask = tb.r1m, tb.r3, tb.cm1, tb.tm1, tb.cm1_mask
    row = []
    for k in range(tb.n):
        x0 = 0
        if c0[i]:
            x0 |= full if ((t0[i] >> k) & 1 or rec[j]) else rec_mask
        if c0[k]:
            x0 |= full if ((t0[k] >> i) & 1 or rec[j]) else rec_mask
        if c0[j]:
            x0 |= full if (rec[i] or rec[k]) else t0[j]
        if x0 != full:
            x0 |= c0_mask if (rec[k] or rec[i]) else c0_mask & tb.t0T[j]

        xinf = 0
        if cinf[i]:
            xinf |= full if ((tinf[i] >> j) & 1 or z[k]) else z_mask
        if cinf[j]:
            xinf |= full if ((tinf[j] >> i) & 1 or z[k]) else z_mask
        if cinf[k]:
            xinf |= full if (z[i] or z[j]) else tinf[k]
        if xinf != full:
            xinf |= cinf_mask if (z[i] or z[j]) else cinf_mask & tb.tinfT[k]

        xm1 = 0
        if cm1[j]:
            xm1 |= full if (r1m[i] or (tm1[j] >> k) & 1) else tb.r3_mask
        if cm1[i]:
            xm1 |= full if (r1m[j] or r3[k]) else tm1[i]
        if cm1[k]:
            xm1 |= full if ((tm1[k] >> j) & 1 or r3[i]) else tb.r1m_mask
        if xm1 != full:
            xm1 |= cm1_mask if (r1m[k] or r3[j]) else cm1_mask & tb.tm1T[i]

        row.append(x0 & xinf & xm1)
    return row


def _simplifies_mask(tb, i, j, k):
    if (tb.triv[i] or tb.triv[j] or tb.triv[k]
            or (tb.ga[i] >> j) & 1 or (tb.gb[i] >> k) & 1
            or (tb.gc[k] >> j) & 1):
        return tb.full
    return tb.triv_mask | tb.ga[k] | tb.gb[j] | tb.gc[i]


def necessary_rows(slopes):
    """_necessary_row(tb, i, j) for every nw corner i and ne corner j, as
    rows[i][j].  No simplification list enters them, so they serve every
    patch of the lists."""
    tb = _SweepTables(slopes)
    return [[_necessary_row(tb, i, j) for j in range(tb.n)]
            for i in range(tb.n)]


def _sweep_chunk(slopes, rows):
    """(necessary, simplified, counterexamples) over every slope 4-tuple,
    the counterexamples in order, from the necessary_rows(slopes) rows."""
    tb = _SweepTables(slopes)
    n = tb.n
    necessary = 0
    simplified = 0
    counterexamples = []
    for i in range(n):
        for j in range(n):
            for k, need in enumerate(rows[i][j]):
                if not need:
                    continue
                simp = _simplifies_mask(tb, i, j, k)
                necessary += need.bit_count()
                good = need & simp
                simplified += good.bit_count()
                bad = need & ~simp
                while bad:
                    low = bad & -bad
                    bad ^= low
                    counterexamples.append((i, j, k, low.bit_length() - 1))
    return necessary, simplified, counterexamples


def _visit_pair_masks(tb, i):
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


def least_corner_chunk(tb, corners):
    """(necessary, simplified, counterexamples) over the tuples whose nw
    corner is one of corners and is their least corner in the order that
    puts T0 first, the counterexamples in a set.  Such a tuple with c
    corners equal to nw stands for 4 / c tuples of its Klein-four orbit."""
    order = sorted(range(tb.n), key=lambda s: (not tb.in0[s], s))
    rank = {s: r for r, s in enumerate(order)}
    necessary = 0   # in twelfths: 48 / c per tuple
    simplified = 0
    bad = set()
    for i in corners:
        after = sum(1 << s for s in range(tb.n) if rank[s] >= rank[i])
        for j, parts, simp_k, simp_base in _visit_pair_masks(tb, i):
            if not (after >> j) & 1:
                continue
            for cand, c, rows in parts:
                for k in _bits(cand & after):
                    need = c & rows[k] & after
                    good = need if (simp_k >> k) & 1 else (
                        need & (simp_base | tb.ga[k]))
                    for se in _bits(need):
                        t = (i, j, k, se)
                        weight = 48 // t.count(i)
                        necessary += weight
                        if (good >> se) & 1:
                            simplified += weight
                        else:
                            bad.add(t)
    assert necessary % 12 == simplified % 12 == 0
    return necessary // 12, simplified // 12, bad


def orbit_images(tuples):
    """The images of the index tuples under the Klein four-group, a set."""
    return {g(t) for t in tuples for g in KLEIN_GETTERS}


def corner_groups(tb, corners):
    """The ne corners as lists that _pair_masks cannot tell apart: equal
    thin-set flags and rows, on no simplification pair and not trivial
    (_simp_masks reads those rows).  The others stand alone."""
    groups = {}
    for i in corners:
        if tb.triv[i] or tb.ga[i] or tb.gb[i] or tb.gc[i]:
            key = i
        else:
            key = (tb.in0[i], tb.ininf[i], tb.inm1[i], tb.vm1[i])
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def scan_pair_rows(slopes, thin, matrix):
    """The symmetric pair rows of the library's _SweepTables, found by
    scanning every slope t = p/q against every thin slope s for a chart-row
    matrix (a, b, c, d) of s with a p + b q dividing c p + d q."""
    rows = [0] * len(slopes)
    for i, s in enumerate(slopes):
        if not thin[i]:
            continue
        a, b, c, d = matrix(s)
        for j, t in enumerate(slopes):
            num = a * t.num + b * t.den
            if num and not (c * t.num + d * t.den) % num:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows

