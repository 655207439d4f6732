"""Earlier forms of surgeryforge.normseq functions, kept verbatim as the
reference that the module is tested against; property: reference (inputs).

- Fibered-knot exponent sums: gofk_exponent_sums over _pattern_sums, the
  if-chain over the chart shapes with a per-index search for an interior
  4, before the chart became rules on the entries other than 2 (every
  sequence over 2..9 of length 1-5, 20,000 sparse ones, the terminal
  forms and four unreduced ones).
- Norm sequences: norm_sequence_of with its q = 0 and S^3 branches (every
  L(p, q) with p < 100).
- Block evaluation: eval_items with its guard against a 0/0 block value,
  before it was folded into one function (every word of length 0-4 over
  ten items)."""

from surgeryforge.lens import LensSpace
from surgeryforge.normseq import Pow2
from surgeryforge.rationals import INF, ExtRational, cf_expand_norm, cf_step


def _pattern_sums(e):
    s = set()
    n = len(e)
    if n == 0:
        s.add(-2)  # S^3 as (); the (1) form carries the other S^3 values
        return s
    if n == 1:
        r = e[0]
        if r == 0:
            s.update({-1, 1})
        elif r == 1:
            s.update({0, 2})
        elif r == 2:
            s.update({1, 3, -1, -3})  # both the (r) and the all-2s readings
        elif r >= 3:
            s.update({r - 1, r + 1})
            if r == 4:
                s.add(-3)
        return s
    if n == 3 and e[1] == 2 and e[0] >= 2 and e[2] >= 2:
        s.add(e[0] + e[2] - 1)
    if n == 2 and e[1] == 3 and e[0] >= 2:
        s.add(e[0] - 2)
    if n >= 3 and e[0] >= 2 and e[1] == 3 and all(c == 2 for c in e[2:]):
        s.add(e[0] - n)  # (r,3,2^[s-1]) with s = n-1
    if all(c == 2 for c in e):
        s.update({-n, -n - 2})
    if e[0] == 4 and all(c == 2 for c in e[1:]):
        s.add(-n - 2)
    if n >= 3:
        for i in range(1, n - 1):
            if e[i] == 4 and all(c == 2 for j, c in enumerate(e) if j != i):
                s.add(-n - 2)
    return s


def gofk_exponent_sums(seq):
    """Exponent sums of genus one fibered knots detected by sequence shape.

    Input must be a reduced sequence, as a tuple: all entries >= 2, or one
    of the terminal forms (), (0), (1).  Returns the set of realizable
    exponent sums; empty means the criterion finds no genus one fibered knot.
    """
    if seq not in ((), (0,), (1,)) and any(e < 2 for e in seq):
        raise ValueError(f"{seq} is not reduced")
    return frozenset(_pattern_sums(seq) | _pattern_sums(seq[::-1]))


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
