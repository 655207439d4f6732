"""The pentangle sweep kernel as it stood before the thin-set rewrite: one
_SweepTables per chunk and a mask evaluation for every (nw, ne, sw) triple.
Kept verbatim as the reference the thin-set kernel in
surgeryforge.pentangle is tested against."""

from surgeryforge.pentangle import (MIRROR_P3_LISTS, P3_LISTS, _NONHYP_A,
                                    _NONHYP_B, _NONHYP_C, _TRIVIAL,
                                    _h_param,
                                    _is_one_minus_reciprocal, _key, _m_param)
from surgeryforge.rationals import cf_eval, shift
from surgeryforge.tangle import (is_reciprocal_of_integer,
                                 is_reciprocal_of_integer as _is_neg_reciprocal)


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

        self.ga = group_rows(_NONHYP_A, P3_LISTS[0], MIRROR_P3_LISTS[0])
        self.gb = group_rows(_NONHYP_B, P3_LISTS[1], MIRROR_P3_LISTS[1])
        self.gc = group_rows(_NONHYP_C, P3_LISTS[2], MIRROR_P3_LISTS[2])

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


def _necessary_masks(tb, i, j, k):
    """se-bit masks of the three necessary conditions for fixed nw,ne,sw."""
    full, rec, rec_mask = tb.full, tb.rec, tb.rec_mask

    x0 = 0
    if tb.c0[i]:
        x0 |= full if ((tb.t0[i] >> k) & 1 or rec[j]) else rec_mask
    if tb.c0[k]:
        x0 |= full if ((tb.t0[k] >> i) & 1 or rec[j]) else rec_mask
    if tb.c0[j]:
        x0 |= full if (rec[i] or rec[k]) else tb.t0[j]
    if x0 != full:
        x0 |= tb.c0_mask if (rec[k] or rec[i]) else tb.c0_mask & tb.t0T[j]

    z, z_mask = tb.z, tb.z_mask
    xinf = 0
    if tb.cinf[i]:
        xinf |= full if ((tb.tinf[i] >> j) & 1 or z[k]) else z_mask
    if tb.cinf[j]:
        xinf |= full if ((tb.tinf[j] >> i) & 1 or z[k]) else z_mask
    if tb.cinf[k]:
        xinf |= full if (z[i] or z[j]) else tb.tinf[k]
    if xinf != full:
        xinf |= tb.cinf_mask if (z[i] or z[j]) else tb.cinf_mask & tb.tinfT[k]

    r1m, r3 = tb.r1m, tb.r3
    xm1 = 0
    if tb.cm1[j]:
        xm1 |= full if (r1m[i] or (tb.tm1[j] >> k) & 1) else tb.r3_mask
    if tb.cm1[i]:
        xm1 |= full if (r1m[j] or r3[k]) else tb.tm1[i]
    if tb.cm1[k]:
        xm1 |= full if ((tb.tm1[k] >> j) & 1 or r3[i]) else tb.r1m_mask
    if xm1 != full:
        xm1 |= tb.cm1_mask if (r1m[k] or r3[j]) else tb.cm1_mask & tb.tm1T[i]

    return x0 & xinf & xm1


def _simplifies_mask(tb, i, j, k):
    if (tb.triv[i] or tb.triv[j] or tb.triv[k]
            or (tb.ga[i] >> j) & 1 or (tb.gb[i] >> k) & 1
            or (tb.gc[k] >> j) & 1):
        return tb.full
    return tb.triv_mask | tb.ga[k] | tb.gb[j] | tb.gc[i]


def _sweep_chunk(args):
    slopes, i_lo, i_hi = args
    tb = _SweepTables(slopes)
    n = tb.n
    checked = 0
    necessary = 0
    simplified = 0
    counterexamples = []
    for i in range(i_lo, i_hi):
        for j in range(n):
            for k in range(n):
                need = _necessary_masks(tb, i, j, k)
                checked += n
                if not need:
                    continue
                simp = _simplifies_mask(tb, i, j, k)
                necessary += bin(need).count("1")
                good = need & simp
                simplified += bin(good).count("1")
                bad = need & ~simp
                if bad:
                    for se in range(n):
                        if (bad >> se) & 1:
                            counterexamples.append((i, j, k, se))
    return checked, necessary, simplified, counterexamples
