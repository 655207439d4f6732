"""The five-cusp quotient tangle: fillings, symmetries, simplification
predicates and the exhaustive two-bridge-triple verifier.

A filling of the pentangle is a 4-tuple (nw, ne, sw, se) of rational
tangle slopes at its corners; the fifth slope x, one of 0, inf and -1,
is passed separately where a filling of the fifth cusp is meant.

The key sweep: if a 4-tuple admits two-bridge fillings at all three of
x = 0, inf, -1 then it must "simplify" (be non-hyperbolic or factor through
the three-cusp quotient tangle or its mirror).  The verifier checks the
necessary conditions for two-bridgeness case by case over all slopes of
bounded height and confirms there are no counterexamples.
"""

import os
from itertools import product
from operator import itemgetter

from .rationals import (INF, ZERO, ExtRational, FrozenValue, _mobius, rat,
                        reciprocal, rot_map)
from .tangle import (MontesinosLink, is_reciprocal_of_integer,
                     montesinos_is_two_bridge)


class P5Filling(FrozenValue):
    """Tangle coordinates (nw, ne, sw, se) at the four corners."""

    __slots__ = ("nw", "ne", "sw", "se")

    def __init__(self, nw, ne, sw, se):
        object.__setattr__(self, "nw", nw)
        object.__setattr__(self, "ne", ne)
        object.__setattr__(self, "sw", sw)
        object.__setattr__(self, "se", se)

    def corners(self):
        return (self.nw, self.ne, self.sw, self.se)

    def __str__(self):
        return "P(" + ",".join(str(s) for s in self.corners()) + ")"


# ---------------------------------------------------------------------------
# Symmetries.  The three slope-preserving involutions swap corner pairs and
# fix each of the fillings x = 0, inf and -1; with the identity they form
# the Klein four-group _KLEIN, whose getters take a tuple (nw, ne, sw, se)
# of corners or corner indices to its image: the identity, then the
# left-right, top-bottom and front-back swaps.
# ---------------------------------------------------------------------------


_KLEIN = tuple(itemgetter(*order) for order in (
    (0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)))


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


def _ordered(a, b):
    """Two (num, den) tuples as an unordered pair, smaller first."""
    return (a, b) if a <= b else (b, a)


def _key(u, v):
    return _ordered((u.num, u.den), (v.num, v.den))


def _pairset(pairs):
    return frozenset(_key(u, v) for u, v in pairs)


def _map_pairs(pairs, fn):
    return [(fn(u), fn(v)) for u, v in pairs]


def _rotations(pairs):
    """The condition list of pairing A and its images under rot_map, the
    lists of pairings B and C."""
    once = _map_pairs(pairs, rot_map)
    return pairs, once, _map_pairs(once, rot_map)


_P3_A, _P3_B, _P3_C = _rotations([
    (rat(2), rat(-2)),
    (rat(-1), rat(3, 2)),
    (rat(1, 2), rat(1, 3)),
    (rat(2), rat(1, 2)),
    (rat(-1), rat(-1)),
])
_MIR_A = _map_pairs(_P3_B, reciprocal)
_MIR_B = _map_pairs(_P3_A, reciprocal)
_MIR_C = _map_pairs(_P3_C, reciprocal)

P3_LISTS = tuple(_pairset(p) for p in (_P3_A, _P3_B, _P3_C))
MIRROR_P3_LISTS = tuple(_pairset(p) for p in (_MIR_A, _MIR_B, _MIR_C))

NONHYP_LISTS = tuple(map(_pairset, _rotations(
    [(rat(-1), rat(2)), (rat(1, 2), rat(1, 2))])))

# per pairing, every pair on which a filling simplifies
_SIMPLIFYING = tuple(map(frozenset.union, NONHYP_LISTS, P3_LISTS,
                         MIRROR_P3_LISTS))

_TRIVIAL = frozenset(((0, 1), (1, 1), (1, 0)))


def _corner_pairs(f):
    """The six corner pairs grouped by pairing."""
    nw, ne, sw, se = [(s.num, s.den) for s in f.corners()]
    return (
        (_ordered(nw, ne), _ordered(sw, se)),
        (_ordered(nw, sw), _ordered(ne, se)),
        (_ordered(nw, se), _ordered(sw, ne)),
    )


def _meets(groups, lists):
    """Whether a corner pair lies in the condition list of its pairing."""
    return not all(map(frozenset.isdisjoint, lists, groups))


def _trivial_corner(f):
    """Whether a corner slope is 0, 1 or inf."""
    return not _TRIVIAL.isdisjoint([(s.num, s.den) for s in f.corners()])


def is_nonhyperbolic(f):
    """True when a listed degeneration is forced by the four corner slopes."""
    return _trivial_corner(f) or _meets(_corner_pairs(f), NONHYP_LISTS)


# (factors through P3, factors through its mirror) -> the report string
_P3_FACTOR = {(False, False): "no", (True, False): "P3",
              (False, True): "mirrorP3", (True, True): "both"}


def factors_through_P3(f):
    """Table lookup over the factoring condition lists (and mirror lists):
    "no", "P3", "mirrorP3" or "both"."""
    groups = _corner_pairs(f)
    return _P3_FACTOR[_meets(groups, P3_LISTS),
                      _meets(groups, MIRROR_P3_LISTS)]


def simplifies(f):
    """Non-hyperbolic, or factors through the three-cusp tangle or mirror."""
    return _trivial_corner(f) or _meets(_corner_pairs(f), _SIMPLIFYING)


# ---------------------------------------------------------------------------
# The chart rows, one per fifth slope x in {0, inf, -1}.  A row applies when
# its gate corner lies in the thin slope set of x,
#
#     T0 = {inf} u {-1/h},    Tinf = the integers,    Tm1 = {inf} u {1-1/m},
#
# where its parameter function solves for h, n or m (inf is h = 0 and
# m = 0), and gives None off the set.  The x-filling is then the Montesinos
# link Q(A, B, C) whose factors are three corner slopes under
# x -> (a x + b)/(c x + d), for integer matrices of the parameter:
#
#     x = 0:    nw = [0, h]    Q([-1, h, sw], [ne], [se])
#     x = inf:  nw = [n]       Q([1, n + ne], [0, sw], [0, se])
#     x = -1:   ne = [1, m]    Q([1, nw], [m, 1, sw], [-1 + se])
#
# Each matrix is a product of c - 1/x = (c, -1; 1, 0) and x + n = (1, n;
# 0, 1), so it has determinant 1.  The sweep pairs the gate with the corner
# whose factor reads the parameter.  The other rows of each x are the images
# of its row under _KLEIN.
# ---------------------------------------------------------------------------

# x -> (gate corner, parameter of a gate slope, paired corner, the factors
# as (corner, matrix of the parameter) in printed order)
_ROWS = {
    ZERO: ("nw", lambda s: (-s.num * s.den if is_reciprocal_of_integer(s)
                            else None),
           "sw", (("sw", lambda h: (-h - 1, 1, h, -1)),
                  ("ne", lambda h: (1, 0, 0, 1)),
                  ("se", lambda h: (1, 0, 0, 1)))),
    INF: ("nw", lambda s: s.num if s.is_integer else None,
          "ne", (("ne", lambda n: (1, n - 1, 1, n)),
                 ("sw", lambda n: (0, -1, 1, 0)),
                 ("se", lambda n: (0, -1, 1, 0)))),
    rat(-1): ("ne", lambda s: (s.den * (s.den - s.num)
                               if abs(s.den - s.num) == 1 else None),
              "sw", (("nw", lambda m: (1, -1, 1, 0)),
                     ("sw", lambda m: (m - 1, -m, 1, -1)),
                     ("se", lambda m: (1, -1, 0, 1)))),
}


def montesinos_presentations(f, x):
    """All Montesinos presentations of the x-filling, x in {0, inf, -1}."""
    if x not in _ROWS:
        raise ValueError("x must be one of 0, inf, -1")
    gate, param, _, factors = _ROWS[x]
    out = []
    for g in _KLEIN:
        t = P5Filling(*g(f.corners()))
        h = param(getattr(t, gate))
        if h is not None:
            out.append(MontesinosLink(
                _mobius(getattr(t, corner), *matrix(h))
                for corner, matrix in factors))
    return out


def two_bridge_necessary(f, x):
    """Necessary condition for the x-filling to be a two-bridge link:
    some Montesinos presentation exists with a reciprocal-integer factor."""
    return any(montesinos_is_two_bridge(link)
               for link in montesinos_presentations(f, x))


# ---------------------------------------------------------------------------
# Case bookkeeping for the sixteen constraint triples (used by the tests
# that check the two order-3 symmetries permute the cases as expected).
# ---------------------------------------------------------------------------


def _thin(x, corner):
    """The test that a filling's corner lies in the thin set of x."""
    param = _ROWS[x][1]
    return lambda f: param(getattr(f, corner)) is not None


ROW_CONSTRAINTS = {
    "WxNW": _thin(ZERO, "nw"),
    "WxSW": _thin(ZERO, "sw"),
    "ExNE": _thin(ZERO, "ne"),
    "ExSE": _thin(ZERO, "se"),
    "NxNW": _thin(INF, "nw"),
    "NxNE": _thin(INF, "ne"),
    "FxNE": _thin(rat(-1), "ne"),
    "FxSW": _thin(rat(-1), "sw"),
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
# necessary conditions can pass only through a corner in the thin set T0,
# Tinf or Tm1 of its chart rows, with masks M0, Minf and Mm1.  For fixed
# corners nw, ne, sw = i, j, k each condition is then `full`, its thin mask,
# or one symmetric pair row V[s], the slopes t for which the paired factor
# of the gate s and the paired corner t, or of t and s, is the reciprocal of
# an integer:
#
#             value     unless           then full when               else
#     x0      V0[j]     i or k in T0     j in T0 or k in V0[i]        M0
#     xinf    Vinf[k]   i or j in Tinf   k in Tinf or j in Vinf[i]    Minf
#     xm1     Vm1[i]    j or k in Tm1    i in Tm1 or k in Vm1[j]      Mm1
#
# The paired factor is t under the determinant-1 matrix (a, b; c, d) that
# _ROWS gives for the parameter of s.  For t = p/q in lowest terms a p + b q
# and c p + d q are then coprime, so the factor is the reciprocal of an
# integer, or inf, exactly when a p + b q = +-1: when (p, q) =
# +-(d - b z, a z - c) for an integer z.  The rows are solved for the
# O(bound) values of z that keep q (or p, when a = 0) within the bound, not
# scanned.
#
# _KLEIN moves each corner into the nw slot once, and it fixes each
# necessary condition (montesinos_presentations ranges over it) and each
# simplification list (it swaps pairs within a pairing).  The x = 0 row
# needs nw in T0, so in the order that puts T0 first (then the other
# slopes, each by index) every necessary tuple has its least corner in T0,
# and its orbit holds a tuple with that corner as nw.  The kernel walks only
# those: nw over T0, and ne, sw and se at or after nw.  Such a tuple with
# c = 1 + [ne = nw] + [sw = nw] + [se = nw] stands for 4 / c tuples of its
# orbit, so counts are kept in twelfths (48, 24, 16, 12) and divided per
# chunk, which is exact as an orbit's walked tuples share their nw.  Each
# walked counterexample is reported with its images under _KLEIN.
#
# For nw in T0 the x0 value is full, or full on V0[nw] and M0 elsewhere,
# by ne.  The sw corners for fixed nw, ne split into at most six cells on
# which x0 & xm1 is one constant c.  In a cell the need mask is c & Vinf[k],
# or c and c & Minf on the two sides of the sw corners where xinf is full;
# since Vinf is symmetric, the k with Vinf[k] & c != 0 are near(c), the
# union of Vinf[s] over s in c, and only those k are candidates.
#
# The ne corners with equal flags, Vm1 rows and simplification rows are
# one group.  For a fixed nw most groups give parts that another group
# already gave, so _pair_masks sorts them into classes and builds each
# class's parts once.  A group's parts depend only on its flags, its
# simplification rows and f, the part of fm1 = Vm1[ne] (the sw corners
# where xm1 is full rather than Mm1) that can reach a cell: none for nw in
# Tm1, where xm1 is full on all of am1; fm1 & after where xinf is full or
# Minf; else fm1 within near(x0) on each x0 class.  The x0 values
# are after and after & M0, with after the T0 corners from nw on and every
# slope off T0; their near masks are the suffix unions of Vinf over the
# walk, with near(off0) for the first, which the tables build once.
#
# The kernel counts cells rather than visiting their sw corners.  The sw
# corners in simp_k simplify whole; the others simplify exactly on
# simp_base | ga[k], and ga[k] is nonzero only on the nine slopes of the
# pairing-A lists.  Off those, a constant cell contributes |cand| * |c| need
# bits, split by simp_base, and a Vinf cell the sum over k in cand of
# |c & Vinf[k]|, which by symmetry equals the sum over s in c of
# |cand & Vinf[s]|, so the loop runs over the smaller mask.  Per-triple
# visits remain only for sw corners on the ga support and, with the same
# enumeration, for cells whose counts show a counterexample.  A part's
# counts depend only on its masks and the simplification masks, and parts
# recur across ne groups and nw corners, so each distinct part is counted
# once per chunk; its tuples with sw or se equal to nw, which weigh less,
# are read off the row of nw.  The kernel reproduces the object-level
# predicates above, which the test suite cross-checks, as it does against
# the per-triple kernel it replaced and, chunk by chunk, the least-corner
# visit of the tuples it walks (tests/pentangle_oracle.py).
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

        index = {(s.num, s.den): i for i, s in enumerate(slopes)}
        height = max(max(abs(p), q) for p, q in index)

        def pair_rows(params, matrix):
            rows = [0] * n
            for i, h in enumerate(params):
                if h is None:
                    continue
                a, b, c, d = matrix(h)
                # the z with |u z - v| <= height, for q = a z - c or, when
                # a = 0, for p = d - b z
                u, v = (a, c) if a else (b, d)
                if u < 0:
                    u, v = -u, -v
                for z in range(-((height - v) // u), (height + v) // u + 1):
                    p, q = d - b * z, a * z - c
                    if q < 0 or not q and p < 0:
                        p, q = -p, -q
                    j = index.get((p, q))
                    if j is not None:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
            return rows

        # per chart row: its thin set as flags and mask, and the pair rows
        # of its paired factor
        tables = []
        for _, param, pair, factors in _ROWS.values():
            params = [param(s) for s in slopes]
            thin = [h is not None for h in params]
            tables.append((thin, mask(thin),
                           pair_rows(params, dict(factors)[pair])))
        ((self.in0, self.m0, self.v0), (self.ininf, self.minf, self.vinf),
         (self.inm1, self.mm1, self.vm1)) = tables
        self.triv = [(s.num, s.den) in _TRIVIAL for s in slopes]
        self.triv_mask = mask(self.triv)
        # the nw corners the kernel walks, and the slopes after all of them
        self.walk = [i for i in range(n) if self.in0[i]]
        self.off0 = self.full & ~self.m0
        self.fulls = [self.full] * n
        self._near = {}

        # symmetric rows of the simplification pairs, one per pairing
        def group_rows(cond):
            rows = [0] * n
            for u, v in cond:
                if u in index and v in index:
                    rows[index[u]] |= 1 << index[v]
                    rows[index[v]] |= 1 << index[u]
            return rows

        self.ga, self.gb, self.gc = map(group_rows, _SIMPLIFYING)
        self.ga_support = mask(self.ga)

        # The ne groups: the corners j with one key (ident, ga[j], Vm1[j]),
        # where ident is the id of what _pair_masks reads of j besides fm1
        # and ga: its thin-set flags and, for _simp_masks, its rows triv, gb
        # and gc.  Equal keys are the corners those two cannot tell apart,
        # as ga is symmetric: bit j of ga[nw] is bit nw of ga[j].  Per group:
        # its mask js, its first member j, ident, fm1, its T0 and Tinf flags,
        # and the sw corners where xm1 is full or Mm1 (am1) and where it is
        # Vm1[nw]
        ids, groups = {}, {}
        for j in range(n):
            in0, inf, m1 = self.in0[j], self.ininf[j], self.inm1[j]
            ident = ids.setdefault(
                (in0, inf, m1, self.triv[j], self.gb[j], self.gc[j]), len(ids))
            key = ident, self.ga[j], self.vm1[j]
            if key in groups:
                groups[key][0] |= 1 << j
                continue
            # fm1 is Vm1[j] within am1: a pair row of a corner off Tm1 has
            # bits only on Tm1, and am1 is full or Mm1
            am1 = self.full if m1 else self.mm1
            groups[key] = [1 << j, j, ident, self.vm1[j], in0, inf, am1,
                           self.full & ~am1]
        self.ne_groups = list(groups.values())

        # near(after) and near(after & M0) for the after of each walked nw
        # corner, from suffix unions of Vinf over the walk and near(off0).
        # Every pair of Vinf has a corner in Tinf, so near(off0) is the
        # corners of Tinf whose row meets off0 with the rows of those in it
        near_off0 = 0
        for k in _bits(self.minf):
            if self.vinf[k] & self.off0:
                near_off0 |= 1 << k
            if self.off0 >> k & 1:
                near_off0 |= self.vinf[k]
        suffix = 0
        for i in reversed(self.walk):
            suffix |= self.vinf[i]
            after_m0 = self.m0 >> i << i
            self._near[after_m0] = suffix
            self._near[after_m0 | self.off0] = suffix | near_off0

    def near(self, mask):
        """The sw corners k whose Vinf[k] meets mask."""
        out = self._near.get(mask)
        if out is None:
            out = 0
            for s in _bits(mask):
                out |= self.vinf[s]
            self._near[mask] = out
        return out


def _simp_masks(tb, i, j):
    """(simp_k, simp_base) for nw = i and ne = j: the tuples whose sw corner
    k is in simp_k all simplify; otherwise (i, j, k, se) simplifies when se
    is in simp_base | ga[k]."""
    if tb.triv[i] or tb.triv[j] or (tb.ga[i] >> j) & 1:
        simp_k = tb.full
    else:
        simp_k = tb.triv_mask | tb.gb[i] | tb.gc[j]
    return simp_k, tb.triv_mask | tb.gb[j] | tb.gc[i]


def _pair_masks(tb, i, after):
    """For nw = i in T0, yield (js, parts, simp_k, simp_base) for disjoint
    masks js of the ne corners in after; those in no js have no necessary
    tuple with sw and se in after.

    parts lists (cand, c, rows) with disjoint nonzero sw masks cand and se
    masks c, all within after: for every j in js the need mask of the triple
    (i, j, k), cut to after, is c & rows[k] when k is in a cand, else 0, and
    (simp_k, simp_base) is _simp_masks(tb, i, j).
    """
    minf, mm1, vinf, fulls, near = tb.minf, tb.mm1, tb.vinf, tb.fulls, tb.near
    v0i, vinfi, vm1i, ga_i = tb.v0[i], vinf[i], tb.vm1[i], tb.ga[i]
    i_inf, i_m1 = tb.ininf[i], tb.inm1[i]
    # x0 is full (after) on all of after for ne in T0; for the others it is
    # full on v0_in and M0 (out) on v0_out
    out = after & tb.m0
    v0_in, v0_out = after & v0i, after & ~v0i
    # the sw corners on which fm1, where xm1 is full rather than Mm1, can
    # reach a cell, for ne inside and outside T0
    near_after = after & near(after)
    reach_out = near_after & v0i | v0_out & near(out)
    # the ne groups by what they give: each class's parts are built once
    classes = {}
    for group in tb.ne_groups:
        js, j, ident, fm1, j_in0, j_inf, _, _ = group
        js &= after
        if not js:
            continue
        if i_m1:
            f = 0
        elif i_inf or j_inf:
            f = fm1 & after
        else:
            f = fm1 & (near_after if j_in0 else reach_out)
        key = ident, ga_i >> j & 1, f
        if key in classes:
            classes[key][0] |= js
        else:
            classes[key] = [js, group]
    # per x0 class of the sw corners, for ne inside and outside T0: the sw
    # masks on which x0 & xm1 is x0 & c for c = full, Mm1 and Vm1[nw], then
    # those x0 & c
    c_in = after, after & mm1, after & vm1i
    c_out = out, out & mm1, out & vm1i
    x0_in = ((after,) * 3 + c_in,)
    x0_out = ((v0_in,) * 3 + c_in, (v0_out,) * 3 + c_out)
    if not i_inf:
        # the same where xinf is Vinf[sw]: only the sw corners k with
        # Vinf[k] & c nonzero, near(c), can have a need
        n_in, n_out = [near(c) for c in c_in], [near(c) for c in c_out]
        near_in = (tuple(after & n for n in n_in) + c_in,)
        near_out = (tuple(v0_in & n for n in n_in) + c_in,
                    tuple(v0_out & n for n in n_out) + c_out)
    for (_, _, f), (js, (_, j, _, _, j_in0, j_inf, am1, rest)) in (
            classes.items()):
        # the sw corners where xm1 is full; it is Mm1 on the rest of am1
        m1_full = am1 if i_m1 else f
        tinf = i_inf or j_inf
        rows = fulls if tinf else vinf
        parts = []
        for k_full, k_mm1, k_vm1, c_full, c_mm1, c_vm1 in (
                (x0_in if j_in0 else x0_out) if tinf else
                near_in if j_in0 else near_out):
            if cell := k_full & m1_full:
                parts.append((cell, c_full, rows))
            if c_mm1 and (cell := k_mm1 & am1 & ~m1_full):
                parts.append((cell, c_mm1, rows))
            if c_vm1 and (cell := k_vm1 & rest):
                parts.append((cell, c_vm1, rows))
        if not parts:
            continue
        simp_k, simp_base = _simp_masks(tb, i, j)
        if not tinf:
            yield js, parts, simp_k, simp_base
            continue
        # xinf is full on every sw corner for the ne corners in Vinf[nw];
        # for the others it is full on Minf and Minf elsewhere
        if sub := js & vinfi:
            yield sub, parts, simp_k, simp_base
        if sub := js & ~vinfi:
            split = []
            for cell, c, _ in parts:
                if low := cell & minf:
                    split.append((low, c, fulls))
                if (high := cell & ~minf) and (c_inf := c & minf):
                    split.append((high, c_inf, fulls))
            if split:
                yield sub, split, simp_k, simp_base


def _pair_count(rows, a, b):
    """The sum over k in a of |b & rows[k]|, for a symmetric rows table.

    By symmetry it is also the sum over s in b of |a & rows[s]|, so the
    loop runs over the smaller of the two masks."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    total = 0
    while a:
        low = a & -a
        a ^= low
        total += (b & rows[low.bit_length() - 1]).bit_count()
    return total


def _cell_counts(tb, cand, c, rows, simp_k, simp_base):
    """(necessary, simplified, bad) over one part (cand, c, rows) of a
    (nw, ne) pair, where bad lists the (sw, se) corners of its
    counterexamples."""
    ga = tb.ga
    inside = cand & simp_k
    rest = cand & ~(simp_k | tb.ga_support)
    good_c = c & simp_base
    bad_c = c ^ good_c
    if rows is tb.fulls:
        n_in = inside.bit_count() * c.bit_count()
        n_good = rest.bit_count() * good_c.bit_count()
        n_bad = rest.bit_count() * bad_c.bit_count()
    else:
        n_in = _pair_count(rows, inside, c) if inside else 0
        n_good = _pair_count(rows, rest, good_c) if rest else 0
        n_bad = _pair_count(rows, rest, bad_c) if rest else 0
    necessary = n_in + n_good + n_bad
    simplified = n_in + n_good
    bad = [(k, se) for k in _bits(rest)
           for se in _bits(bad_c & rows[k])] if n_bad else []
    visit = cand & tb.ga_support & ~simp_k
    while visit:
        low = visit & -visit
        visit ^= low
        k = low.bit_length() - 1
        need = c & rows[k]
        good = need & (simp_base | ga[k])
        necessary += need.bit_count()
        simplified += good.bit_count()
        if need != good:
            bad.extend((k, se) for se in _bits(need ^ good))
    return necessary, simplified, tuple(bad)


def _sweep_chunk(tb, corners):
    """(necessary, simplified, counterexamples) over the orbits whose least
    corner is one of the walked nw corners `corners`; the counterexamples
    are a set of index tuples."""
    necessary = 0
    simplified = 0
    counterexamples = set()
    fulls, ga = tb.fulls, tb.ga
    counted = {}
    for i in corners:
        nw = 1 << i
        after = tb.m0 >> i << i | tb.off0
        for js, parts, simp_k, simp_base in _pair_masks(tb, i, after):
            # 48 / c per tuple: 48, 24 and 16 off the ne = nw diagonal and
            # 24, 16 and 12 on it, for 0, 1 and 2 of sw, se equal to nw
            off, on = (js & ~nw).bit_count(), (js & nw) >> i
            w_all = 48 * off + 24 * on
            w_one, w_two = 24 * off + 8 * on, 16 * off + 4 * on
            for cand, c, rows in parts:
                key = (simp_k, simp_base, cand, c, rows is fulls)
                counts = counted.get(key)
                if counts is None:
                    counts = counted[key] = _cell_counts(
                        tb, cand, c, rows, simp_k, simp_base)
                nec, simp, bad = counts
                necessary += w_all * nec
                simplified += w_all * simp
                # the need masks with sw = nw, over se, and (rows being
                # symmetric) with se = nw, over sw
                sw_nw = c & rows[i] if cand & nw else 0
                se_nw = cand & rows[i] if c & nw else 0
                if sw_nw or se_nw:
                    good_sw = sw_nw if simp_k & nw else (
                        sw_nw & (simp_base | ga[i]))
                    good_se = se_nw if simp_base & nw else (
                        se_nw & (simp_k | ga[i]))
                    necessary -= (w_one * (sw_nw.bit_count()
                                           + se_nw.bit_count())
                                  - w_two * (sw_nw >> i & 1))
                    simplified -= (w_one * (good_sw.bit_count()
                                            + good_se.bit_count())
                                   - w_two * (good_sw >> i & 1))
                if bad:
                    counterexamples.update(
                        g((i, j, k, se)) for j in _bits(js)
                        for k, se in bad for g in _KLEIN)
    return necessary // 12, simplified // 12, counterexamples


def verify_simplification(bound):
    """Sweep all slope 4-tuples of height <= bound; every tuple passing the
    two-bridge necessary conditions at x = 0, inf and -1 must simplify.

    Returns (results, counterexamples): the counts the report prints, and
    the (nw, ne, sw, se) slope tuples that pass the conditions without
    simplifying, which are expected to be none."""
    if bound < 2:
        raise ValueError("bound must be >= 2")
    slopes = stern_brocot_slopes(bound)
    n = len(slopes)
    tables = _SweepTables(slopes)
    chunks = _partition(tables.walk, _workers(tables.walk))
    if len(chunks) == 1:
        results = [_sweep_chunk(tables, chunks[0])]
    else:
        # forked workers inherit the tables; only their nw corners are sent.
        # Imported here because it costs every CLI process its import time.
        from multiprocessing import get_context
        try:
            pool = get_context("fork").Pool(len(chunks),
                                            initializer=_adopt_tables,
                                            initargs=(tables,))
        except OSError:
            # fork or a pipe failed; the report is the same in process
            results = [_sweep_chunk(tables, tables.walk)]
        else:
            with pool:
                results = pool.map(_pool_chunk, chunks)
    # a tuple outside the walk lies in the orbit of a walked one, or has no
    # corner in T0 and fails x = 0
    return ({"bound": bound,
             "slope_count": n,
             "tuples_checked": n ** 4,
             "necessary_all_three": sum(r[0] for r in results),
             "simplified": sum(r[1] for r in results)},
            tuple(tuple(slopes[x] for x in ce)
                  for ce in sorted(ce for r in results for ce in r[2])))


_worker_tables = None


def _adopt_tables(tables):
    global _worker_tables
    _worker_tables = tables


def _pool_chunk(corners):
    return _sweep_chunk(_worker_tables, corners)


def _workers(walk):
    """One worker per 83 nw corners of walk, up to one per usable CPU: two
    first tie with one in process at 165 (bound 82, 2 CPUs, Python 3.11.7).
    One where os cannot fork (Windows), as the pool forks."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(cpus, len(walk) // 83)) if hasattr(os, "fork") else 1


def _partition(walk, workers):
    """walk dealt round-robin into at most `workers` chunks: a corner's cost
    falls steeply along the walk, so contiguous ranges would not balance."""
    return [walk[w::workers] for w in range(min(workers, len(walk)))]
