"""Workload commands and the references their reports are checked against.

A workload gives a ``Plan``: a warm-up and passes, each a list of
``Command`` values, each a CLI argv with a check.  A check returns ``None`` when the report is
right and a one-line reason otherwise.

References come from outside the code under test where that is cheap:
counting formulas for the pentangle sweep, ``fractions.Fraction`` for
continued fractions, brute force for the quadratic congruence and the
``q q' = +-1 (mod p)`` rule for lens spaces.  Every other report is compared
byte for byte with a digest in ``digests.json``, written by
``run.py --record``.

Known defects are well-formed commands whose report was already wrong when
the digests were recorded.  They are kept in the workloads, count as
failed, and are named in the output, but do not make a run incorrect.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

DIGEST_FILE = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Command:
    argv: tuple
    check: object          # callable (rc, stdout) -> None | reason
    known_defect: str = None
    setup: bool = False    # a set-up probe (--help), not workload work


def digest_key(argv):
    """Digest lookup key: the argv without a leading ``--jobs N``, because
    reports are byte-identical for every jobs value."""
    argv = list(argv)
    if argv[:1] == ["--jobs"]:
        argv = argv[2:]
    return " ".join(argv)


def stdout_digest(rc, stdout):
    return f"{rc}:{hashlib.sha256(stdout).hexdigest()}"


def load_digests():
    if not DIGEST_FILE.exists():
        return {}
    return json.loads(DIGEST_FILE.read_text())


def _report(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_digest(digests, argv):
    want = digests.get(digest_key(argv))

    def run(rc, stdout):
        if want is None:
            return "no recorded digest"
        if stdout_digest(rc, stdout) != want:
            return f"report differs from the recorded digest (exit {rc})"
        return None
    return run


def check_all(*checks):
    def run(rc, stdout):
        for check in checks:
            reason = check(rc, stdout)
            if reason:
                return reason
        return None
    return run


def check_results(expected):
    """Exit 0, no counterexamples and exactly the expected results."""
    def run(rc, stdout):
        report = _report(stdout)
        if rc != 0 or report is None:
            return f"exit {rc}, no report"
        if report.get("counterexamples"):
            return "unexpected counterexamples"
        if report.get("results") != expected:
            return f"results {report.get('results')!r} != {expected!r}"
        return None
    return run


def check_verdict_ok(rc, stdout):
    report = _report(stdout)
    if rc != 0 or report is None or report.get("counterexamples"):
        return f"verdict: exit {rc}, expected 0 with no counterexamples"
    return None


# ---------------------------------------------------------------------------
# Pentangle sweep.
# ---------------------------------------------------------------------------


def slope_count(bound):
    """2 + 2 #{1 <= p, q <= bound : gcd(p, q) = 1}: inf, 0 and +-p/q."""
    return 2 + 2 * sum(1 for p in range(1, bound + 1)
                       for q in range(1, bound + 1) if gcd(p, q) == 1)


def check_pentangle(bound):
    def run(rc, stdout):
        report = _report(stdout)
        if rc != 0 or report is None:
            return f"exit {rc}, no report"
        res = report.get("results", {})
        n = slope_count(bound)
        if res.get("slope_count") != n:
            return f"slope_count {res.get('slope_count')} != {n}"
        if res.get("tuples_checked") != n ** 4:
            return f"tuples_checked {res.get('tuples_checked')} != {n}**4"
        if report.get("counterexamples") != []:
            return f"{len(report['counterexamples'])} counterexamples"
        return None
    return run


def pentangle_command(bound, jobs, digests):
    argv = ("pentangle", "verify", "--bound", str(bound))
    if jobs > 1:
        argv = ("--jobs", str(jobs)) + argv
    checks = [check_pentangle(bound)]
    if digest_key(argv) in digests:
        checks.append(check_digest(digests, argv))
    return Command(argv, check_all(*checks))


# ---------------------------------------------------------------------------
# Families.  tmax > seqmax + 1 leaves the twist family's top index
# unreachable but still a target, so the census reports a false "missing"
# row; the right verdict is a pass, so that cell is checked by verdict only.
# ---------------------------------------------------------------------------


def census_command(tmax, seqmax, digests):
    argv = ("families", "census", "--tmax", str(tmax), "--seqmax", str(seqmax))
    if tmax > seqmax + 1:
        return Command(argv, check_verdict_ok,
                       known_defect="census tmax > seqmax+1: false missing row")
    return Command(argv, check_digest(digests, argv))


def families_commands(tmax, seqmax, bad_seqmax, bound, digests):
    alt = ("families", "verify", "alt-gofk")
    inter = ("families", "verify", "intersections", "--bound", str(bound))
    return [census_command(tmax, seqmax, digests),
            census_command(tmax, bad_seqmax, digests),
            Command(alt, check_digest(digests, alt)),
            Command(inter, check_digest(digests, inter))]


# ---------------------------------------------------------------------------
# Calculator mix: one draw per op per batch.  Ops with an oracle draw freely
# from the seed; the others draw from a fixed pool whose reports have
# recorded digests.
# ---------------------------------------------------------------------------


def _coprime(rng, p):
    p = abs(p)
    if p < 2:
        return rng.randint(-9, 9) or 1
    while True:
        q = rng.randint(-p, 2 * p)
        if gcd(p, q) == 1:
            return q


def _slope(rng, lim=9):
    while True:
        a, b = rng.randint(-lim, lim), rng.randint(0, lim)
        if a or b:
            return f"{a}/{b}" if b != 1 else str(a)


def _seq(rng, lo, hi, max_len, blocks):
    """'(a1,...)' with entries in [lo, hi] and, when blocks, some 2^[t]
    shorthand blocks (never adjacent)."""
    parts = []
    for _ in range(rng.randint(1, max_len)):
        if blocks and rng.random() < 0.2 and not (parts and "^" in parts[-1]):
            parts.append(f"2^[{rng.randint(*blocks)}]")
        else:
            parts.append(str(rng.randint(lo, hi)))
    return "(" + ",".join(parts) + ")"


def _gen_cf_eval(rng):
    coeffs = [str(rng.randint(-5, 9)) for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.3:
        coeffs.append(f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}")
    return ("cf", "eval", "[" + ",".join(coeffs) + "]")


def _gen_cf_solve_tail(rng, with_block):
    """A prefix of plain entries, with one 2^[t] block when with_block."""
    parts = [str(rng.randint(-4, 8)) for _ in range(rng.randint(1, 5))]
    if with_block:
        parts.insert(rng.randint(0, len(parts)), f"2^[{rng.randint(0, 3)}]")
    return ("cf", "solve-tail", "(" + ",".join(parts) + ")",
            str(rng.randint(-9, 9)))


def _gen_lens_homeo(rng):
    p = rng.randint(2, 300)
    q = _coprime(rng, p)
    p2 = rng.choice((p, p, p, -p, rng.randint(2, 300)))
    q2 = rng.choice((q, pow(q, -1, p), -q, -pow(q, -1, p)))
    if gcd(p2, q2) != 1:
        q2 = _coprime(rng, p2)
    flags = ("--oriented",) if rng.random() < 0.5 else ()
    return ("lens", "homeo", str(p), str(q), str(p2), str(q2)) + flags


def _gen_star(rng):
    return ("simpleknot", "star", str(rng.randint(2, 3000)),
            "--eps", rng.choice(("+1", "-1", "both")))


def _gen_lens_pq(op):
    def gen(rng):
        p = rng.randint(-200, 200)
        return ("lens", op, str(p), str(_coprime(rng, p)))
    return gen


def _positional(*values):
    """Values as positionals; a leading '-' that is not a plain negative
    integer would be read as an option, so argparse needs '--' first."""
    if any(v.startswith("-") and not v[1:].isdigit() for v in values):
        return ("--",) + values
    return values


def _gen_from_surgery(rng):
    return ("lens", "from-surgery") + _positional(_slope(rng, 60))


def _gen_normseq(op, lo):
    def gen(rng):
        blocks = (-1, 3) if lo == 0 else None
        return ("normseq", op, _seq(rng, lo, 6, 7, blocks))
    return gen


def _gen_cf_expand(rng):
    q = rng.randint(1, 5000)
    p = rng.randint(q + 1, 20000)
    return ("cf", "expand", f"{p}/{q}")


def _gen_chi(rng):
    p = rng.randint(2, 3000)
    return ("simpleknot", "chi", str(p), str(_coprime(rng, p) % p),
            str(rng.randint(1, p - 1)))


def _gen_genus_search(rng):
    p = rng.randint(2, 500)
    return ("simpleknot", "genus-search", f"L({p},{_coprime(rng, p) % p})",
            str(rng.randint(0, 40)))


def _gen_two_bridge(rng):
    return ("tangle", "two-bridge",
            "Q(" + ",".join(_slope(rng) for _ in range(3)) + ")")


def _gen_simplifies(rng):
    return ("pentangle", "simplifies") + _positional(
        *(_slope(rng, 5) for _ in range(4)))


def _gen_montesinos(rng):
    return (("pentangle", "montesinos", "--x", rng.choice(("0", "inf", "-1")))
            + _positional(*(_slope(rng, 5) for _ in range(4))))


def _slope_not_in(rng, excluded):
    while True:
        s = _slope(rng)
        a, b = (int(x) for x in s.split("/")) if "/" in s else (int(s), 1)
        g = gcd(a, b)
        key = (a // g, b // g) if b else (1, 0)
        if key[1] < 0:
            key = (-key[0], -key[1])
        if key not in excluded:
            return s


def _int_not_in(rng, excluded):
    while True:
        v = rng.randint(-12, 12)
        if v not in excluded:
            return v


_X_EXCLUDED = {(0, 1), (1, 1), (2, 1), (3, 1), (1, 0)}
_B_EXCLUDED = _X_EXCLUDED | {(3, 2)}


def _gen_family_eval(rng):
    family = rng.choice(("X0", "X1", "X2", "X3", "A", "B"))
    if family == "X0":
        while True:
            m, n = _int_not_in(rng, {0}), _int_not_in(rng, {0, 1, 2, 3})
            if (m, n) not in ((-1, 4), (-1, 5)):
                params = (m, n)
                break
    elif family == "X1":
        params = (_int_not_in(rng, {0, 1}), _slope_not_in(rng, _X_EXCLUDED))
    elif family == "X2":
        params = (_int_not_in(rng, {-1, 0, 1}), _slope_not_in(rng, _X_EXCLUDED))
    elif family == "X3":
        params = (_int_not_in(rng, {-1, 0, 1}), _int_not_in(rng, {-1, 0, 1}))
    elif family == "A":
        params = (_int_not_in(rng, {-1, 0, 1}), _int_not_in(rng, {0, 1}))
    else:
        params = (_slope_not_in(rng, _B_EXCLUDED),)
    return ("families", "eval") + _positional(family, *(str(p) for p in params))


def _gen_optsurg(rng):
    family = rng.randint(1, 6)
    k = _int_not_in(rng, {0})
    extra = (str(_int_not_in(rng, {0})),) if family <= 3 and rng.random() < 0.5 else ()
    return ("families", "optsurg", str(family), str(k)) + extra


def _gen_fes_triple(rng):
    return ("families", "fes-triple")


# -- oracles ----------------------------------------------------------------
# Qhat values are Fractions, with None for inf; a - inf = inf, 1/0 = inf,
# 1/inf = 0, as in the package's minus-convention continued fractions.


def _qstr(x):
    return "inf" if x is None else str(x)


def _parse_q(text):
    if text == "inf":
        return None
    a, _, b = text.partition("/")
    return None if b and int(b) == 0 else Fraction(int(a), int(b or 1))


def _recip(x):
    if x is None:
        return Fraction(0)
    return None if x == 0 else 1 / x


def _minus(a, x):
    return None if a is None or x is None else a - x


def _cf_value(coeffs):
    value = None
    for c in reversed(coeffs):
        value = _minus(c, _recip(value))
    return value


def _seq_entries(text):
    """Entries of a sequence literal, 2^[t] (t >= 0) expanded to t twos."""
    out = []
    for part in text.strip("()").split(","):
        if part.startswith("2^["):
            out.extend([2] * int(part[3:-1]))
        elif part:
            out.append(int(part))
    return out


def _oracle_cf_eval(argv):
    coeffs = [_parse_q(c) for c in argv[2].strip("[]").split(",")]
    return {"value": _qstr(_cf_value(coeffs))}


def _oracle_cf_solve_tail(argv):
    # peel [a1, ..., an, x] = [0, j] one entry at a time: [a, rest] = y
    # gives [rest] = 1/(a - y)
    y = _cf_value([Fraction(0), Fraction(int(argv[3]))])
    for a in _seq_entries(argv[2]):
        y = _recip(_minus(Fraction(a), y))
    return {"tail": _qstr(y)}


def _lens_label(p, q):
    if p < 0:
        p, q = -p, -q
    return (p, 1 if p == 0 else 0 if p == 1 else q % p)


def _oracle_lens_homeo(argv):
    (p1, q1), (p2, q2) = (_lens_label(int(argv[2]), int(argv[3])),
                          _lens_label(int(argv[4]), int(argv[5])))
    signs = (1,) if "--oriented" in argv else (1, -1)
    same = p1 == p2 and (p1 < 2 or any(
        (q1 - s * q2) % p1 == 0 or (q1 * q2 - s) % p1 == 0 for s in signs))
    return {"homeomorphic": same}


def _oracle_star(argv):
    p = int(argv[2])
    epss = {"+1": (1,), "-1": (-1,), "both": (1, -1)}[argv[4]]
    out = {}
    for eps in epss:
        ks = [k for k in range(1, p) if (k * k + eps * (k + 1)) % p == 0]
        out[f"eps={eps:+d}"] = {
            "raw": [{"k": k, "q": (-k * k) % p} for k in ks],
            "canonical": sorted({min(k, p - k) for k in ks}),
        }
    return out


# (name, generator, oracle or None)
CALC_OPS = (
    ("cf eval", _gen_cf_eval, _oracle_cf_eval),
    ("cf expand", _gen_cf_expand, None),
    ("cf solve-tail", _gen_cf_solve_tail, _oracle_cf_solve_tail),
    ("lens normalize", _gen_lens_pq("normalize"), None),
    ("lens homeo", _gen_lens_homeo, _oracle_lens_homeo),
    ("lens mirror", _gen_lens_pq("mirror"), None),
    ("lens from-surgery", _gen_from_surgery, None),
    ("normseq reduce", _gen_normseq("reduce", 0), None),
    ("normseq to-lens", _gen_normseq("to-lens", 0), None),
    ("normseq dual", _gen_normseq("dual", 2), None),
    ("normseq exponents", _gen_normseq("exponents", 2), None),
    ("simpleknot chi", _gen_chi, None),
    ("simpleknot star", _gen_star, _oracle_star),
    ("simpleknot genus-search", _gen_genus_search, None),
    ("tangle two-bridge", _gen_two_bridge, None),
    ("pentangle simplifies", _gen_simplifies, None),
    ("pentangle montesinos", _gen_montesinos, None),
    ("families eval", _gen_family_eval, None),
    ("families optsurg", _gen_optsurg, None),
    ("families fes-triple", _gen_fes_triple, None),
)

POOL_SIZE = 16


def _calc_known_defect(argv):
    if argv[:2] == ("cf", "solve-tail") and "2^[" in argv[2]:
        return "cf solve-tail with a 2^[t] prefix: TypeError traceback"
    return None


def calc_batch(rng, digests, pools, index):
    """One command per op, operands from the seeded rng, in seeded order.
    Every second batch's ``cf solve-tail`` prefix holds a 2^[t] block, so
    that known defect shows at the same rate for every seed."""
    batch = []
    for name, gen, oracle in CALC_OPS:
        if name == "cf solve-tail":
            argv = gen(rng, index % 2 == 1)
            check = check_results(oracle(argv))
        elif oracle is not None:
            argv = gen(rng)
            check = check_results(oracle(argv))
        else:
            argv = rng.choice(pools[name])
            check = check_digest(digests, argv)
        batch.append(Command(argv, check, _calc_known_defect(argv)))
    rng.shuffle(batch)
    return batch


def calc_pools():
    """The fixed draws of each digest-checked op, independent of the seed."""
    pools = {}
    for name, gen, oracle in CALC_OPS:
        if oracle is None:
            rng = random.Random(f"pool:{name}")
            pools[name] = list(dict.fromkeys(gen(rng) for _ in range(POOL_SIZE)))
    return pools


# ---------------------------------------------------------------------------
# Workloads.  Each is a function (rng, digests, passes, tiny) -> Plan with a
# fixed number of measured passes, so that a seed always gives the same
# commands, the same attempted count and the same known-defect failures.
# ``tiny`` shrinks the sizes for the self-test.
# ---------------------------------------------------------------------------

def check_help(rc, stdout):
    if rc != 0 or not stdout.startswith(b"usage: surgeryforge"):
        return f"--help: exit {rc}, no usage text"
    return None


HELP = Command(("--help",), check_help, setup=True)


@dataclass(frozen=True)
class Plan:
    """One run's commands: an untimed warm-up, then the measured passes.
    The reference work runs before every ``group`` commands of a pass."""
    warmup: list
    passes: list
    group: int


PENTANGLE_BOUND = 10
FAMILIES = dict(tmax=6, seqmax=6, bad_seqmax=4, bound=100)
TINY_FAMILIES = dict(tmax=2, seqmax=3, bad_seqmax=0, bound=4)
# Seconds of one measured pass, reference runs included, on a 2-vCPU
# x86-64 host; run.py turns --seconds into a whole number of passes.
PASS_SECONDS = {"sweeps": 8.5, "calc-mix": 3.8}


def _sweeps(rng, digests, passes, tiny):
    commands = ([pentangle_command(3 if tiny else PENTANGLE_BOUND, 1, digests)]
                + families_commands(**(TINY_FAMILIES if tiny else FAMILIES),
                                    digests=digests))
    return Plan(warmup=commands, passes=[[HELP, HELP] + commands] * passes,
                group=1)


def _calc_mix(rng, digests, passes, tiny):
    pools = calc_pools()
    warmup = calc_batch(random.Random("warm-up"), digests, pools, 0)
    return Plan(warmup=[HELP] + warmup,
                passes=[[HELP] + calc_batch(rng, digests, pools, i)
                        for i in range(passes)],
                group=4)


WORKLOADS = {
    "sweeps": _sweeps,
    "calc-mix": _calc_mix,
}


def digest_commands():
    """Every argv whose report is checked against a recorded digest."""
    out = []
    for bound in range(2, 13):
        out.append(("pentangle", "verify", "--bound", str(bound)))
    for sizes in (FAMILIES, TINY_FAMILIES):
        for cmd in families_commands(**sizes, digests={}):
            if cmd.known_defect is None:
                out.append(cmd.argv)
    for pool in calc_pools().values():
        out.extend(pool)
    return out
