"""Earlier forms of surgeryforge.normseq functions, kept verbatim as the
reference that the module is tested against; property: reference (inputs).

- Norm sequences: norm_sequence_of with its q = 0 and S^3 branches (every
  L(p, q) with p < 100).
- Block evaluation: eval_items with its guard against a 0/0 block value,
  before it was folded into one function (every word of length 0-4 over
  ten items).

Fibered-knot exponent sums have one reference, the braid chart [a, 2, b]
tabulated once over |a|, |b| <= 41 in tests/test_normseq.py (the chart
targets, every sequence over 2..9 of length 1-5, 150 drawn ones, 20,000
sparse ones with entries up to 40 and length up to 16, and the terminal
forms)."""

from surgeryforge.lens import LensSpace
from surgeryforge.normseq import Pow2
from surgeryforge.rationals import INF, ExtRational, cf_expand_norm, cf_step


def norm_sequence_of(lens):
    """A norm sequence for L(p,q) (p >= 2): the all->=2 expansion of p/q.

    For q = 0 or p < 2 returns the terminal forms.
    """
    if not isinstance(lens, LensSpace):
        raise TypeError("expected a LensSpace")
    if lens.p == 0:
        return (0,)
    if lens.p == 1:
        return ()
    if lens.q == 0:
        raise ValueError("q = 0 only for S^3")
    return cf_expand_norm(ExtRational(lens.p, lens.q))


def eval_items(items):
    """Exact continued-fraction value of a sequence with 2^[t] blocks.

    A block acts as the t-th power of the Moebius map T(x) = 2 - 1/x, which
    for t copies of the literal entry 2 agrees with plain evaluation and
    extends it to t = -1.
    """
    value = INF
    for item in reversed(list(items)):
        if isinstance(item, Pow2):
            t = item.t
            # T^t as a matrix: x -> ((t+1)x - t) / (tx - (t-1))
            num = (t + 1) * value.num - t * value.den
            den = t * value.num - (t - 1) * value.den
            if num == 0 and den == 0:
                raise ValueError("degenerate block evaluation")
            value = ExtRational(num, den)
        else:
            value = cf_step(item, value)
    return value
