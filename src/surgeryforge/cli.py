"""Command line front end: calculators and verification sweeps with
deterministic JSON/CSV/text reports.

Exit codes: 0 on success, 1 when a verification command finds
counterexamples, 2 on usage errors.  Output is byte-identical across runs
and across --jobs values; timing is only attached when --timing is passed.
"""

import argparse
import importlib.util
import json
import re
import sys
import time

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


def _jsonable(value):
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def _compact(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _emit(args, command, elapsed_ms, parameters, results, counterexamples=()):
    report = {
        "command": command,
        "parameters": _jsonable(parameters),
        "results": _jsonable(results),
        "counterexamples": _jsonable(list(counterexamples)),
        "version": __version__,
    }
    if args.timing:
        report["elapsed_ms"] = elapsed_ms
    fmt = args.format
    if fmt == "json":
        print(_compact(report))
    elif fmt == "csv":
        _emit_csv(report)
    else:
        _emit_text(report)
    return 1 if report["counterexamples"] else 0


def _cell(value):
    """A report field as text and csv print it: a string as itself, any
    other value as its compact JSON."""
    return value if isinstance(value, str) else _compact(value)


def _emit_csv(report):
    """One row per result, one column per result field, each cell a _cell
    quoted where CSV needs it.  Counterexamples follow under a
    `counterexample` header, one cell each, then elapsed_ms under its own."""
    import csv
    rows = report["results"]
    if isinstance(rows, dict):
        rows = [rows]
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
    for key, val in sorted(report["parameters"].items()):
        print(f"  {key} = {_cell(val)}")
    results = report["results"]
    if isinstance(results, dict):
        for key, val in sorted(results.items()):
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


_NEGATIVE_FRACTION = re.compile(r"^-\d+/\d+$")


class _Parser(argparse.ArgumentParser):
    """Reads a negative fraction such as -7/3 as a positional, as argparse
    already does for a negative integer, and raises a usage error as a
    ValueError, so that main reports it on one line and exits 2; subparsers
    inherit the class."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_FRACTION.match(arg_string):
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        raise ValueError(message)


# The command table: command words -> (arguments, handler), each argument a
# (flags, keywords) pair for add_argument.  Each word is one subparser level,
# and the arguments belong to the parser of the last word, which records
# the entry's name as args.command.  A handler returns (parameters, results)
# or (parameters, results, counterexamples), with results a dict or a list
# of dicts, which is what the emitters read; a sweep returns the (results,
# counterexamples) pair itself, and its handler passes it through after the
# parameters.  Fields hold library values, which _jsonable prints through
# their __str__.  Handlers call library functions through their modules at
# call time, so that a function replaced on its module (by a test or a
# tracer) is the one that runs.
COMMANDS = {}


def _arg(*flags, **keywords):
    return flags, keywords


def _command(name, *arguments):
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
    # jobs only partitions the sweep; it never appears in the report
    return ({"bound": args.bound},
            *pentangle.verify_simplification(args.bound, jobs=args.jobs))


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


def _command_tree():
    """The command words as nested dicts, in the order of COMMANDS: each
    word maps to the words below it, or at a leaf to its command name."""
    tree = {}
    for name in COMMANDS:
        *path, last = name.split()
        node = tree
        for word in path:
            node = node.setdefault(word, {})
        node[last] = name
    return tree


def _next_word(node, tokens):
    """(word, first) for the first token that is a word of node, or None,
    consuming tokens up to it; first when no token came before it, so that
    argparse reads the word before anything that could make it print every
    word of the level, as help or an "invalid choice" message does."""
    for count, token in enumerate(tokens):
        if token in node:
            return token, count == 0
    return None, False


def _build_parser(argv):
    """The parser for argv.  Each level on argv's command path gets a parser
    for the word argv reads there when it is the level's first token, and
    otherwise for every word of the level, which argparse may then list in
    help or an "invalid choice" message; only the word argv reads gets
    subparsers, and a command its arguments."""
    parser = _Parser(
        prog="surgeryforge",
        description="exact Dehn-surgery calculators and verification sweeps")
    parser.add_argument("--format", choices=("json", "csv", "text"),
                        default="json")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default: 1)")
    parser.add_argument("--timing", action="store_true",
                        help="attach elapsed_ms to the report")
    # The word argparse reads at a level is the first token that is a word
    # of the level: before the first command word argv holds only global
    # options, whose values (a format, an integer) are never command words,
    # and a value that is one fails in argparse before any word is read.
    node, level_parser, tokens = _command_tree(), parser, iter(argv)
    while isinstance(node, dict):
        level = level_parser.add_subparsers(required=True)
        word, first = _next_word(node, tokens)
        children = {w: level.add_parser(w)
                    for w in ([word] if first else node)}
        if word is None:
            return parser
        node, level_parser = node[word], children[word]
    level_parser.set_defaults(command=node)
    for flags, keywords in COMMANDS[node][0]:
        level_parser.add_argument(*flags, **keywords)
    return parser


def main(argv=None):
    try:
        if argv is None:
            argv = sys.argv[1:]
        args = _build_parser(argv).parse_args(argv)
        if args.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {args.jobs}")
        started = time.monotonic()
        outcome = COMMANDS[args.command][1](args)
        elapsed = int((time.monotonic() - started) * 1000)
        return _emit(args, args.command, elapsed, *outcome)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
