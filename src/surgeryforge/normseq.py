"""Norm and weak-norm sequences for lens spaces.

A sequence (a_1, ..., a_n) encodes the lens space L(p,q) with
p/q = [a_1, ..., a_n] via surgery on a linear chain link (the i-th component
gets coefficient -a_i).  It is a norm sequence if every a_i >= 2 and a weak
norm sequence if every a_i >= 0 or it is empty.  A sequence and its reverse
name the same lens space up to orientation-preserving homeomorphism
(reversal inverts q mod p).

Shorthand: 2^[t] stands for the entry 2 repeated t times.  t = 0 blocks are
omitted and t = -1 blocks are removed by the fusion rules

    (..., a, 2^[-1], b, ...) = (..., a+b-2, ...)
    (..., a, b, 2^[-1])      = (..., a)

Entries 0 and 1 reduce away except in the terminal sequences (0) and (1):
(0) names S^1 x S^2 while (1) and () name S^3.

Each rule is stated once, in `applicable_rewrites`, as a record (priority,
index, lo, hi, new) that replaces items[lo:hi] by new: priority 0 for the
block rules, 1 for the 0 rules, 2 for the 1 rules and 3 for reversing the
list.  `reduce_seq` applies the least priority first, leftmost first.  Two
touching 2^[-1] blocks never fuse, so a list holding them is refused with
ValueError.
"""

from .lens import LensSpace, from_fraction
from .rationals import (INF, ExtRational, FrozenValue, _mobius, cf_expand_norm,
                        cf_step)


class Pow2(FrozenValue):
    """The shorthand block 2^[t]."""

    __slots__ = ("t",)

    def __init__(self, t):
        if t < -1:
            raise ValueError(f"2^[{t}] is undefined: blocks need t >= -1")
        object.__setattr__(self, "t", t)

    def __str__(self):
        return f"2^[{self.t}]"


def parse_seq(text):
    """Parse '(a1,a2,...,an)' where entries may use the 2^[t] shorthand."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    items = []
    for part in s.split(","):
        part = part.strip()
        if not part:
            continue
        block = part.startswith("2^[") and part.endswith("]")
        try:
            value = int(part[3:-1] if block else part)
        except ValueError:
            raise ValueError(f"not a norm sequence: {text!r} (expected "
                             "(a1,...,an), integers or 2^[t] blocks)") from None
        items.append(Pow2(value) if block else value)
    return tuple(items)


def _twos(block):
    """The t twos of a block 2^[t] with t >= 0, as a list.  A t past the
    index range or the memory raises ValueError naming the block."""
    try:
        return [2] * block.t
    except (OverflowError, MemoryError):
        raise ValueError(f"{block} is too long to expand") from None


def expand_blocks(items):
    """The plain entries of an item list: each 2^[t] block with t >= 0
    becomes t twos.  Negative blocks have no plain expansion."""
    out = []
    for item in items:
        if isinstance(item, Pow2):
            if item.t < 0:
                raise ValueError(f"{item} has no plain expansion")
            out.extend(_twos(item))
        else:
            out.append(item)
    return tuple(out)


def format_items(items):
    return "(" + ",".join(str(e) for e in items) + ")"


def sequence_kind(entries):
    """'norm' for a nonempty all->=2 sequence, 'weak' for an all->=0 one
    (the empty sequence included), otherwise 'raw'."""
    if entries and all(e >= 2 for e in entries):
        return "norm"
    if all(e >= 0 for e in entries):
        return "weak"
    return "raw"


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
            # T^t as a matrix: x -> ((t+1)x - t) / (tx - (t-1)).  Its
            # determinant is 1, so a reduced value never maps to 0/0.
            value = _mobius(value, t + 1, -t, t, 1 - t)
        else:
            value = cf_step(item, value)
    return value


def to_lens(seq):
    """The lens space named by a sequence: L(p,q) with p/q its value."""
    return from_fraction(eval_items(seq))


# ---------------------------------------------------------------------------
# Rewrite engine.
#
# Rules on mixed int/Pow2 item lists.  Every rule preserves the named lens
# space; all except the reversal step preserve the exact fraction value.
# The side conditions on the 0/1 rules rule out the overlapping redexes that
# would otherwise make the system non-confluent.
# ---------------------------------------------------------------------------


def applicable_rewrites(items):
    """One record (priority, index, lo, hi, new) per applicable rule: the
    rule at item `index` replaces items[lo:hi] by the list `new`.

    Priority 0 marks the block rules, 1 the 0 rules, 2 the 1 rules and 3
    the reversal; each index carries at most one rule, so no two records
    share (priority, index).  Reversal is offered only when nothing else
    applies, the list starts with 0 or 1 and it holds no block: a block
    left with no rule touches another block and never fuses.
    """
    out = []
    n = len(items)

    def is_int(i):
        return 0 <= i < n and isinstance(items[i], int)

    for i, item in enumerate(items):
        mid = is_int(i - 1) and is_int(i + 1)
        end = i == n - 1 and is_int(i - 1)
        if isinstance(item, Pow2):
            if item.t >= 0:
                out.append((0, i, i, i + 1, _twos(item)))
            elif i == 0 and is_int(1):
                out.append((0, i, 0, 2, [0, items[1] - 2]))
            elif mid:
                out.append((0, i, i - 1, i + 2,
                            [items[i - 1] + items[i + 1] - 2]))
            elif end:
                out.append((0, i, i - 1, n, []))
            elif n == 1:
                out.append((0, i, 0, 1, [0]))
        elif item == 0:
            if mid:
                out.append((1, i, i - 1, i + 2, [items[i - 1] + items[i + 1]]))
            elif end:
                out.append((1, i, i - 1, n, []))
        elif item == 1:
            if mid and items[i - 1] != 0 and items[i + 1] != 0:
                out.append((2, i, i - 1, i + 2,
                            [items[i - 1] - 1, items[i + 1] - 1]))
            elif end and items[i - 1] != 0:
                out.append((2, i, i - 1, n, [items[i - 1] - 1]))
    if (not out and n >= 2 and items[0] in (0, 1)
            and not any(isinstance(e, Pow2) for e in items)):
        # only a leading redex remains; reversal is free on norm sequences
        out.append((3, 0, 0, n, items[::-1]))
    return out


def reduce_seq(seq):
    """Canonical reduced form: blocks eliminated, no removable 0/1 entries.

    Applies the rule with the least (priority, index) until none applies.
    The result still names the same lens space (orientedly); the terminal
    forms (0) and () / (1) name S^1 x S^2 and S^3.  Returns a tuple of
    integers.
    """
    items = list(seq)
    while rules := applicable_rewrites(items):
        _, _, lo, hi, new = min(rules)
        items[lo:hi] = new
    if any(isinstance(e, Pow2) for e in items):
        raise ValueError("adjacent shorthand blocks are not reducible")
    return tuple(items)


# ---------------------------------------------------------------------------
# Riemenschneider point rule.
# ---------------------------------------------------------------------------


def riemenschneider_dual(seq):
    """The dual of an all->=2 sequence by the point rule.

    Row i of a staircase carries a_i - 1 dots, each row starting in the
    column of the last dot of the row above; the dual entry b_j is one more
    than the number of dots in column j.  The dual satisfies
    1/[a_1,...,a_l] + 1/[b_1,...,b_m] = 1 exactly, and the rule is an
    involution.

    Every column holds one dot, and the column where row i + 1 starts holds
    the last dot of row i as well.  With s_i the partial sums of a_k - 2,
    the staircase has s_l + 1 columns and row i + 1 starts in column s_i,
    so b is all 2s plus one at each s_i with i < l: the row-start rule.
    """
    if not seq or min(seq) < 2:
        raise ValueError("point rule needs a nonempty all->=2 sequence")
    try:
        b = [2] * (sum(seq) - 2 * len(seq) + 1)
    except (OverflowError, MemoryError):
        raise ValueError(f"the dual of {format_items(seq)} is too long "
                         "to write out") from None
    s = 0
    for a in seq[:-1]:
        s += a - 2
        b[s] += 1
    return tuple(b)


# ---------------------------------------------------------------------------
# Genus one fibered knot patterns.
#
# A two-bridge link whose double branched cover contains a genus one fibered
# knot is the plat closure of a 3-braid with fraction [a, 2, b]; the braid
# has exponent sum a + b - 1.  Rewriting (a, 2, b) for each sign regime of
# (a, b) yields the sequence shapes below with their exponent sums:
#
#     (r,2,s) r,s>=2 : r+s-1        (r)          : r-1, r+1, plus -3 if r=4
#     (r,3)          : r-2          (r,3,2^[s-1]): r-s-1
#     (2^[r-1])      : -r+1, -r-1   (4,2^[s-1])  : -s-2
#     (2^[r-1],4,2^[s-1]) : -r-s-1
#
# Read through `others`, the entries other than 2, the chart is six rules
# on a sequence of length n, each stated once in _pattern_sums:
#
#     ()                     : -2
#     (r)                    : r-1, r+1   (the terminal (0) and (1) too)
#     (r,2,s)                : r+s-1
#     (r,3,2^[s-1])          : r-n        ((r,3) is s = 1)
#     others == []           : -n, -n-2   (all 2s)
#     others == [4]          : -n-2       (one 4 anywhere among 2s)
#
# No shape has more than two entries other than 2.  A sequence is matched
# both as given and reversed.
# ---------------------------------------------------------------------------


def _pattern_sums(e):
    n = len(e)
    if not n:
        return {-2}  # S^3 as (); the (1) form carries the other S^3 values
    if n == 1:
        s = {e[0] - 1, e[0] + 1}
    elif n == 3 and e[1] == 2:
        s = {e[0] + e[2] - 1}
    elif e[1] == 3 and e[2:].count(2) == n - 2:
        s = {e[0] - n}
    else:
        s = set()
    others = [c for c in e if c != 2]
    if not others:
        s |= {-n, -n - 2}
    elif others == [4]:
        s.add(-n - 2)
    return s


def gofk_exponent_sums(seq):
    """Exponent sums of genus one fibered knots detected by sequence shape.

    Input must be a reduced sequence, as a tuple: all entries >= 2, or one
    of the terminal forms (), (0), (1).  Returns the set of realizable
    exponent sums; empty means the criterion finds no genus one fibered knot.
    """
    if seq not in ((), (0,), (1,)) and min(seq) < 2:
        raise ValueError(f"{seq} is not reduced")
    return frozenset(_pattern_sums(seq) | _pattern_sums(seq[::-1]))


def norm_sequence_of(lens):
    """A norm sequence for L(p,q): the all->=2 expansion of p/q, or the
    terminal form (0) for S^1 x S^2 and () for S^3."""
    if not isinstance(lens, LensSpace):
        raise TypeError("expected a LensSpace")
    if lens.p == 0:
        return (0,)
    return cf_expand_norm(ExtRational(lens.p, lens.q))
