"""Command line front end: calculators and verification sweeps with
deterministic JSON/CSV/text reports.

Exit codes: 0 on success, 1 when a verification command finds
counterexamples, 2 on usage errors.  Output is byte-identical across
runs; timing is only attached when --timing is passed.
The `surgeryforge` process (and python -m surgeryforge.cli) ends through
run, by os._exit once stdout and stderr are flushed, so atexit handlers do
not run; main called in process returns its exit code.

_read reads argv in the plain form, where an argument is a string that
does not start with "-", or a negative integer or fraction such as -5 or
-7/3:

- the global options --format and --timing, spelled in full, come before
  the first command word;
- the command words come next, then the command's options and arguments
  in any order, each option spelled in full with its value, an argument,
  as the next string;
- one "--" may come among the command's arguments when an argument
  follows it, and every string after it but another "--" is an argument;
- -h or --help prints the help of its level and exits 0, wherever it
  stands at that level.

It reads a plain argv as argparse reads the COMMANDS table built as one
subparser level per command word (tests/cli_oracle.py keeps that parser
as the reference).  Every other argv, such as one with --format=text, a
unique prefix (--form text), -hh, a trailing "--" or -1.5, exits 2 with
one error line in argparse's words.  No argv imports argparse.
"""

import errno
import importlib.util
import os
import sys
import time
from types import SimpleNamespace

from . import __version__, lens, rationals
from .rationals import parse_cf, parse_slope


def _lazy_module(name):
    """The package module ``name``, registered in sys.modules and on the
    package as an import would, but run only on its first attribute access,
    so that a command loads only the modules it uses."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


families, normseq, pentangle, simpleknot, tangle = map(
    _lazy_module, ("families", "normseq", "pentangle", "simpleknot", "tangle"))


def _items(table):
    """A dict's items as a report prints them: keyed and sorted by str."""
    return sorted(((str(key), value) for key, value in table.items()),
                  key=lambda item: item[0])


def _compact(value):
    """value as json.dumps(value, sort_keys=True, separators=(",", ":"))
    writes it, with a tuple as a list, dict keys by _items, and a string
    or a library value such as L(7,2) as the JSON string of its str."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, dict):
        return "{" + ",".join(f"{_compact(key)}:{_compact(val)}"
                              for key, val in _items(value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_compact, value)) + "]"
    value = str(value)
    if (value.isascii() and value.isprintable() and '"' not in value
            and "\\" not in value):
        return f'"{value}"'
    import json  # escapes; no report string needs them
    return json.dumps(value)


def _emit(args, elapsed_ms, parameters, results, counterexamples=()):
    report = {"command": args.command, "parameters": parameters,
              "results": results, "counterexamples": list(counterexamples),
              "version": __version__}
    if args.timing:
        report["elapsed_ms"] = elapsed_ms
    verdict = 1 if report["counterexamples"] else 0
    if args.format == "json":
        return _write(verdict, print, _compact(report))
    return _write(verdict, _emit_csv if args.format == "csv" else _emit_text,
                  report)


def _write(verdict, write, *args):
    """write(*args), which prints to stdout, and a flush of stdout; then
    verdict.  A reader that closed the pipe early is not an error: the rest
    is dropped and verdict returned.  Any other failure to write, a stdout
    closed before the process started included, prints one error line and
    returns 2."""
    try:
        if sys.stdout is None:  # no file descriptor 1 at start-up
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        write(*args)
        sys.stdout.flush()
    except OSError as exc:
        # run, or the interpreter at exit after an in-process main, flushes
        # stdout again: point what is left at devnull, where stdout has a
        # file descriptor
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError):
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write the report: {exc.strerror}",
                  file=sys.stderr)
            return 2
    return verdict


def _cell(value):
    """A report field as text and csv print it: a string or a library value
    such as L(7,2) as its str, any other value as its compact JSON."""
    if value is None or isinstance(value, (int, list, tuple, dict)):
        return _compact(value)
    return str(value)


def _emit_csv(report):
    """One row per result, one column per result field, each cell a _cell
    quoted where CSV needs it.  Counterexamples follow under a
    `counterexample` header, one cell each, then elapsed_ms under its own."""
    import csv
    results = report["results"]
    rows = [dict(_items(row)) for row in
            ([results] if isinstance(results, dict) else results)]
    keys = sorted({k for row in rows for k in row})
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(keys)
    writer.writerows([_cell(row.get(k, "")) for k in keys] for row in rows)
    if report["counterexamples"]:
        writer.writerow(["counterexample"])
        writer.writerows([_cell(ce)] for ce in report["counterexamples"])
    if "elapsed_ms" in report:
        writer.writerows((["elapsed_ms"], [report["elapsed_ms"]]))


def _emit_text(report):
    print(f"# {report['command']}")
    for key, val in _items(report["parameters"]):
        print(f"  {key} = {_cell(val)}")
    results = report["results"]
    if isinstance(results, dict):
        for key, val in _items(results):
            print(f"{key}: {_cell(val)}")
    else:
        for row in results:
            print(_cell(row))
    ces = report["counterexamples"]
    print(f"counterexamples: {len(ces)}")
    for ce in ces:
        print(f"  {_cell(ce)}")
    if "elapsed_ms" in report:
        print(f"elapsed_ms: {report['elapsed_ms']}")


# The command table: command words -> (arguments, handler), each argument a
# (flags, keywords) pair as argparse's add_argument takes them.  Each word is
# one level of the parser, and the arguments belong to the level of the last
# word, which records the entry's name as args.command.  A handler returns
# (parameters, results) or (parameters, results, counterexamples), with
# results a dict or a list of dicts, which is what the emitters read; a
# sweep returns the (results, counterexamples) pair itself, and its handler
# passes it through after the parameters.  Fields hold library values, which
# the report writers print as their str.  Handlers call library functions
# through their modules at call time, so that a function replaced on its
# module (by a test or a tracer) is the one that runs.
COMMANDS = {}


def _arg(*flags, **keywords):
    return flags, keywords


def _command(name, *arguments):
    # the property on which _read's reading of positionals in order rests
    counted = [i for i, (_, keywords) in enumerate(arguments)
               if "nargs" in keywords]
    if counted and (counted != [len(arguments) - 1] or any(
            flags[0].startswith("-") for flags, _ in arguments)):
        raise TypeError(f"{name}: only the last argument of a command "
                        f"without options may take nargs")

    def register(handler):
        COMMANDS[name] = (arguments, handler)
        return handler
    return register


_FILLING = tuple(_arg(name) for name in ("nw", "ne", "sw", "se"))


def _filling(args):
    return pentangle.P5Filling(*(parse_slope(s) for s in
                                 (args.nw, args.ne, args.sw, args.se)))


@_command("cf eval", _arg("word"))
def _cf_eval(args):
    word = parse_cf(args.word)
    return ({"word": rationals.format_cf(word)},
            {"value": rationals.cf_eval(word)})


@_command("cf expand", _arg("value"))
def _cf_expand(args):
    x = parse_slope(args.value)
    return {"value": x}, {"expansion": list(rationals.cf_expand_norm(x))}


@_command("cf solve-tail", _arg("prefix"), _arg("j", type=int))
def _cf_solve_tail(args):
    prefix = normseq.expand_blocks(normseq.parse_seq(args.prefix))
    tail = rationals.cf_solve_tail(prefix, args.j)
    return {"prefix": list(prefix), "j": args.j}, {"tail": tail}


@_command("lens normalize", _arg("p", type=int), _arg("q", type=int))
def _lens_normalize(args):
    return ({"p": args.p, "q": args.q},
            {"lens": lens.LensSpace(args.p, args.q)})


@_command("lens homeo", *(_arg(name, type=int) for name in
                          ("p1", "q1", "p2", "q2")),
          _arg("--oriented", action="store_true"))
def _lens_homeo(args):
    l1 = lens.LensSpace(args.p1, args.q1)
    l2 = lens.LensSpace(args.p2, args.q2)
    fn = lens.homeo_oriented if args.oriented else lens.homeo_unoriented
    return ({"l1": l1, "l2": l2, "oriented": args.oriented},
            {"homeomorphic": fn(l1, l2)})


@_command("lens mirror", _arg("p", type=int), _arg("q", type=int))
def _lens_mirror(args):
    return ({"p": args.p, "q": args.q},
            {"mirror": lens.mirror(lens.LensSpace(args.p, args.q))})


@_command("lens from-surgery", _arg("slope"))
def _lens_from_surgery(args):
    r = parse_slope(args.slope)
    return {"slope": r}, {"lens": lens.from_surgery(r)}


@_command("normseq reduce", _arg("seq"))
def _normseq_reduce(args):
    items = normseq.parse_seq(args.seq)
    red = normseq.reduce_seq(items)
    return ({"seq": normseq.format_items(items)},
            {"reduced": normseq.format_items(red),
             "kind": normseq.sequence_kind(red),
             "lens": normseq.to_lens(red)})


@_command("normseq to-lens", _arg("seq"))
def _normseq_to_lens(args):
    items = normseq.parse_seq(args.seq)
    return ({"seq": normseq.format_items(items)},
            {"lens": normseq.to_lens(items)})


@_command("normseq dual", _arg("seq"))
def _normseq_dual(args):
    # the point rule reads plain entries: 2^[t] with t >= 0 is t twos
    entries = normseq.expand_blocks(normseq.parse_seq(args.seq))
    dual = normseq.riemenschneider_dual(entries)
    return ({"seq": normseq.format_items(entries)},
            {"dual": normseq.format_items(dual)})


@_command("normseq exponents", _arg("seq"))
def _normseq_exponents(args):
    items = normseq.parse_seq(args.seq)
    sums = normseq.gofk_exponent_sums(normseq.reduce_seq(items))
    return ({"seq": normseq.format_items(items)},
            {"exponent_sums": sorted(sums)})


@_command("simpleknot chi",
          *(_arg(name, type=int) for name in ("p", "q", "k")))
def _simpleknot_chi(args):
    knot = simpleknot.SimpleKnot(args.p, args.q, args.k)
    return ({"p": args.p, "q": args.q, "k": args.k},
            {"p": args.p, "q": args.q, "k": args.k,
             "chi": simpleknot.euler_char(knot),
             "genus": simpleknot.genus_primitive(knot),
             "order": knot.homological_order})


@_command("simpleknot star", _arg("p", type=int),
          _arg("--eps", choices=("+1", "-1", "both"), default="both"))
def _simpleknot_star(args):
    if args.p < 2:
        raise ValueError(f"p must be >= 2, got {args.p}")
    epss = {"+1": (1,), "-1": (-1,), "both": (1, -1)}[args.eps]
    results = {}
    for eps in epss:
        sols = simpleknot.star_solutions(args.p, eps)
        results[f"eps={eps:+d}"] = {
            "raw": [{"k": k, "q": q} for k, q in sols],
            "canonical": list(simpleknot.star_canonical(args.p, sols)),
        }
    return {"p": args.p, "eps": args.eps}, results


@_command("simpleknot genus-search", _arg("lens"), _arg("genus", type=int))
def _simpleknot_genus_search(args):
    space = lens.parse_lens(args.lens)
    if args.genus < 0:
        raise ValueError(f"genus must be >= 0, got {args.genus}")
    knots = simpleknot.knots_with_genus(space, args.genus)
    return ({"lens": space, "genus": args.genus}, {"knots": knots})


@_command("tangle two-bridge", _arg("link"))
def _tangle_two_bridge(args):
    text = args.link.strip()
    if not (text.startswith("Q(") and text.endswith(")")):
        raise ValueError("expected Q(a/b,c/d,e/f)")
    factors = tuple(parse_slope(part) for part in text[2:-1].split(","))
    link = tangle.MontesinosLink(factors)
    return ({"link": link},
            {"two_bridge_necessary": tangle.montesinos_is_two_bridge(link)})


@_command("pentangle verify", _arg("--bound", type=int, required=True))
def _pentangle_verify(args):
    return {"bound": args.bound}, *pentangle.verify_simplification(args.bound)


@_command("pentangle simplifies", *_FILLING)
def _pentangle_simplifies(args):
    f = _filling(args)
    return ({"filling": f},
            {"nonhyperbolic": pentangle.is_nonhyperbolic(f),
             "factors": pentangle.factors_through_P3(f),
             "simplifies": pentangle.simplifies(f)})


@_command("pentangle montesinos", *_FILLING, _arg("--x", required=True))
def _pentangle_montesinos(args):
    f = _filling(args)
    x = parse_slope(args.x)
    links = pentangle.montesinos_presentations(f, x)
    return ({"filling": f, "x": x},
            {"presentations": links,
             "two_bridge_necessary": pentangle.two_bridge_necessary(f, x)})


@_command("families eval", _arg("family"), _arg("params", nargs="+"))
def _families_eval(args):
    params = families.parse_params(args.family, args.params)
    triple = families.family_triple(args.family, params)
    return ({"family": args.family, "params": [str(p) for p in params]},
            dict(triple))


@_command("families census", _arg("--tmax", type=int, default=5),
          _arg("--seqmax", type=int, default=6))
def _families_census(args):
    return ({"tmax": args.tmax, "seqmax": args.seqmax},
            *families.gofklens_census(args.tmax, args.seqmax))


@_command("families verify intersections",
          _arg("--bound", type=int, default=8))
def _families_verify_intersections(args):
    return ({"bound": args.bound},
            *families.verify_three_filling_intersections(args.bound))


@_command("families verify alt-gofk")
def _families_verify_alt_gofk(args):
    return {}, *families.alt_gofk_pipeline()


@_command("families optsurg", _arg("family", type=int), _arg("k", type=int),
          _arg("ell", type=int, nargs="?", default=None))
def _families_optsurg(args):
    pair = families.optsurg_catalog(args.family, args.k, args.ell)
    return ({"family": args.family, "k": args.k, "ell": args.ell},
            [{"knot": d, "lens": l} for d, l in pair])


@_command("families fes-triple")
def _families_fes_triple(args):
    data = families.figure_eight_sister_triple()
    return {}, {key: ([{"knot": d, "lens": l} for d, l in val]
                      if key != "triple" else val)
                for key, val in data.items()}


# The parser.  _read reads an argv as argparse reads the table with one
# subparser level per command word and a command's arguments on the level
# of its last word; tests/cli_oracle.py keeps that argparse parser, and the
# tests compare _read with it.

_PARSER = "A..."  # the nargs of the choice of the next command word


class _Action:
    """An argument of a parser level, read from add_argument's (flags,
    keywords): an option or a positional, -h, or the choice of the next
    command word, the one positional that stores no field.  A keyword or
    value that _read does not read as argparse does raises TypeError, so a
    table entry fails at import.  A default is stored as given, never
    converted by the type as argparse converts a string default."""

    __slots__ = ("flags", "dest", "name", "nargs", "type", "choices",
                 "default", "required", "help")

    def __init__(self, flags, keywords, stored=True):
        for key, value in keywords.items():
            if key not in ("choices", "default", "required", "help") and (
                    key, value) not in (("type", int), ("nargs", "+"),
                                        ("nargs", "?"),
                                        ("action", "store_true")):
                raise TypeError(f"unsupported argument {key}={value!r}")
        optional = flags[0].startswith("-")
        store_true = keywords.get("action") == "store_true"
        self.flags = flags if optional else ()
        self.dest = None if not stored else (
            flags[0].lstrip("-").replace("-", "_") if optional else flags[0])
        self.name = "/".join(flags)
        self.nargs = 0 if store_true else keywords.get(
            "nargs", None if stored or optional else _PARSER)
        self.type = keywords.get("type")
        self.choices = keywords.get("choices")
        self.default = keywords.get("default", False if store_true else None)
        self.required = keywords.get("required",
                                     not optional and self.nargs != "?")
        self.help = keywords.get("help")


_HELP = _Action(("-h", "--help"), {"action": "store_true",
                                   "help": "show this help message and exit"},
                stored=False)
_GLOBALS = [_Action(*arg) for arg in (
    _arg("--format", choices=("json", "csv", "text"), default="json"),
    _arg("--timing", action="store_true",
         help="attach elapsed_ms to the report"))]
_COMMAND_ACTIONS = {name: [_HELP, *(_Action(*arg) for arg in arguments)]
                    for name, (arguments, _) in COMMANDS.items()}


def _level(words):
    """The actions of the parser level below the command words `words`:
    -h and a command's arguments, or -h, the global options at the root,
    and the choice of the next command word."""
    name = " ".join(words)
    if name in _COMMAND_ACTIONS:
        return _COMMAND_ACTIONS[name]
    prefix = f"{name} " if words else ""
    below = tuple(dict.fromkeys(command[len(prefix):].split()[0]
                                for command in COMMANDS
                                if command.startswith(prefix)))
    return [_HELP, *(() if words else _GLOBALS),
            _Action(("{" + ",".join(below) + "}",), {"choices": below},
                    stored=False)]


def _help(words):
    """The -h text of a level, laid out as argparse lays it out, but with
    the usage on one line."""
    def metavar(action):
        if action.choices is not None:
            return "{" + ",".join(action.choices) + "}"
        return action.dest.upper() if action.flags else action.name

    def usage(action):
        if action.flags:
            flag = action.flags[0]
            part = flag if action.nargs == 0 else f"{flag} {metavar(action)}"
            return part if action.required else f"[{part}]"
        m = metavar(action)
        return {None: m, "?": f"[{m}]", "+": f"{m} [{m} ...]",
                _PARSER: f"{m} ..."}[action.nargs]

    def invocation(action):
        if not action.flags:
            return metavar(action)
        if action.nargs == 0:
            return ", ".join(action.flags)
        return ", ".join(f"{flag} {metavar(action)}" for flag in action.flags)

    actions = _level(words)
    options = [action for action in actions if action.flags]
    positionals = [action for action in actions if not action.flags]
    column = min(max(len(invocation(action)) for action in actions) + 4, 24)
    lines = [" ".join(["usage:", "surgeryforge", *words,
                       *map(usage, options + positionals)]), ""]
    if not words:
        lines += ["exact Dehn-surgery calculators and verification sweeps", ""]
    for title, group in (("positional arguments:", positionals),
                         ("options:", options)):
        if group:
            lines.append(title)
            for action in group:
                entry = "  " + invocation(action)
                if action.help:
                    entry = entry.ljust(column) + action.help
                lines.append(entry)
            lines.append("")
    return "\n".join(lines)


def _argument(string):
    """Whether string is an argument of the plain form: it does not start
    with "-", or it is a negative integer or fraction such as -5 or -7/3."""
    if not string.startswith("-"):
        return True
    numbers = string[1:].split("/")
    return len(numbers) <= 2 and all(number.isascii() and number.isdigit()
                                     for number in numbers)


def _value(action, string):
    """string converted by the action's type and checked against its
    choices; ValueError in argparse's words when either refuses it."""
    try:
        value = int(string) if action.type is int else string
    except ValueError:
        raise ValueError(f"argument {action.name}: invalid int value: "
                         f"{string!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"argument {action.name}: invalid choice: "
                         f"{string!r} (choose from "
                         f"{', '.join(action.choices)})")
    return value


def _read(argv):
    """The fields of a plain argv: one per argument of its command, the
    global options, and `command`, the command's name; -h prints the help
    of its level and exits 0.  Any other argv raises ValueError with one
    line in argparse's words.  Read from the left, an unknown option
    (--opt=value among them), an option without its value, or a word or
    option value that its choices or type refuse stops the reading; then
    come, in turn, a positional value that its type refuses, the arguments
    still required and the arguments left over.

    Arguments go to a command's positionals in order.  argparse reads them
    so because a variable-count positional is the last argument of a
    command without options, which _command checks."""
    fields, words, i = {}, (), 0
    while True:
        actions = _level(words)
        for action in actions:
            if action.dest is not None:
                fields[action.dest] = action.default
        options = {flag: action for action in actions
                   for flag in action.flags}
        positionals = [action for action in actions if not action.flags]
        name = " ".join(words)
        taken, given, dashed = [], set(), False
        while i < len(argv):
            string = argv[i]
            i += 1
            if (string == "--" and name in COMMANDS and not dashed
                    and i < len(argv)):
                dashed = True
            elif _argument(string) or dashed and string != "--":
                if name not in COMMANDS:
                    words += (_value(positionals[0], string),)
                    break
                taken.append(string)
            else:
                action = options.get(string)
                if action is _HELP:
                    # sys.stdout is read once _write has checked it
                    raise SystemExit(_write(
                        0, lambda text: sys.stdout.write(text), _help(words)))
                if action is None:
                    raise ValueError(f"unrecognized arguments: {string}")
                if action.nargs == 0:
                    fields[action.dest] = True
                elif i < len(argv) and _argument(argv[i]):
                    fields[action.dest] = _value(action, argv[i])
                    given.add(action)
                    i += 1
                else:
                    raise ValueError(f"argument {action.name}: "
                                     f"expected one argument")
        else:  # argv ends at this level
            break
    for action in positionals:
        count = len(taken) if action.nargs == "+" else 1
        strings, taken = taken[:count], taken[count:]
        if strings:
            values = [_value(action, string) for string in strings]
            fields[action.dest] = values if action.nargs == "+" else values[0]
            given.add(action)
    missing = [action.name for action in actions
               if action.required and action not in given]
    if missing:
        raise ValueError("the following arguments are required: "
                         + ", ".join(missing))
    if taken:
        raise ValueError(f"unrecognized arguments: {' '.join(taken)}")
    fields["command"] = name
    return SimpleNamespace(**fields)


def main(argv=None):
    try:
        args = _read(sys.argv[1:] if argv is None else list(argv))
        started = time.monotonic()
        outcome = COMMANDS[args.command][1](args)
        elapsed = int((time.monotonic() - started) * 1000)
        return _emit(args, elapsed, *outcome)
    except (ValueError, OverflowError, MemoryError) as exc:
        # an oversize entry, such as the point rule's (10^20), overflows an
        # index or asks for more memory than there is; a MemoryError has no
        # message of its own
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def run():
    """The `surgeryforge` process: main() on sys.argv, with the code of the
    SystemExit that -h raises; then stdout and stderr are flushed and the
    process ends at that code by os._exit, skipping interpreter
    finalization (module teardown, atexit handlers), which costs more than
    most commands.  An unexpected exception propagates as from main."""
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None where the descriptor was closed
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
