"""Command line front end: calculators and verification sweeps with
deterministic JSON/CSV/text reports.

Exit codes: 0 on success, 1 when a verification command finds
counterexamples, 2 on usage errors.  Output is byte-identical across runs
and across --jobs values; timing is only attached when --timing is passed.
"""

import argparse
import dataclasses
import json
import os
import re
import sys
import time

from . import __version__, families, lens, normseq, pentangle, rationals, simpleknot, tangle
from .rationals import ExtRational, parse_cf, parse_slope


def _jsonable(value):
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    if isinstance(value, ExtRational):
        return str(value)
    if isinstance(value, (lens.LensSpace, normseq.NormSeq, simpleknot.SimpleKnot,
                          tangle.MontesinosLink, families.CensusEntry,
                          families.FamilyFilling)):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_jsonable(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if dataclasses.is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    return str(value)


def _emit(args, command, parameters, results, counterexamples=(), elapsed_ms=None):
    report = {
        "command": command,
        "parameters": _jsonable(parameters),
        "results": _jsonable(results),
        "counterexamples": _jsonable(list(counterexamples)),
        "version": __version__,
    }
    if args.timing and elapsed_ms is not None:
        report["elapsed_ms"] = elapsed_ms
    fmt = args.format
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    elif fmt == "csv":
        _emit_csv(report)
    else:
        _emit_text(report)
    return 1 if report["counterexamples"] else 0


def _emit_csv(report):
    rows = report["results"]
    if isinstance(rows, dict):
        rows = [rows]
    if not isinstance(rows, list):
        rows = [{"value": rows}]
    scalar_rows = []
    for row in rows:
        if not isinstance(row, dict):
            scalar_rows.append({"value": row})
        else:
            scalar_rows.append({k: v for k, v in row.items()
                                if not isinstance(v, (dict, list))})
    keys = sorted({k for row in scalar_rows for k in row})
    print(",".join(keys))
    for row in scalar_rows:
        print(",".join(str(row.get(k, "")) for k in keys))


def _emit_text(report):
    print(f"# {report['command']}")
    for key, val in sorted(report["parameters"].items()):
        print(f"  {key} = {val}")
    results = report["results"]
    if isinstance(results, dict):
        for key, val in sorted(results.items()):
            print(f"{key}: {val}")
    elif isinstance(results, list):
        for row in results:
            print(row)
    else:
        print(results)
    ces = report["counterexamples"]
    print(f"counterexamples: {len(ces)}")
    for ce in ces:
        print(f"  {ce}")


_FAMILY_ARITY = {"X0": 2, "X1": 2, "X2": 2, "X3": 2, "A": 2, "B": 1}


def _parse_params(family, raw):
    if family not in _FAMILY_ARITY:
        raise ValueError(f"unknown family {family!r}")
    if len(raw) != _FAMILY_ARITY[family]:
        raise ValueError(f"family {family} takes {_FAMILY_ARITY[family]} "
                         f"parameter(s), got {len(raw)}")
    if family in ("X0", "X3", "A"):
        return (int(raw[0]), int(raw[1]))
    if family in ("X1", "X2"):
        return (int(raw[0]), parse_slope(raw[1]))
    return (parse_slope(raw[0]),)


def _resolve_jobs(args):
    """The worker count: a --jobs option, else SURGERYFORGE_JOBS, else 1."""
    jobs = getattr(args, "pjobs", None)
    if jobs is None:
        jobs = args.jobs
    if jobs is None:
        text = os.environ.get("SURGERYFORGE_JOBS", "1")
        try:
            jobs = int(text)
        except ValueError:
            raise ValueError("SURGERYFORGE_JOBS must be an integer, "
                             f"got {text!r}") from None
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


_NEGATIVE_FRACTION = re.compile(r"^-\d+/\d+$")


class _Parser(argparse.ArgumentParser):
    """Reads a negative fraction such as -7/3 as a positional, as argparse
    already does for a negative integer; subparsers inherit the class."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_FRACTION.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def main(argv=None):
    parser = _Parser(
        prog="surgeryforge",
        description="exact Dehn-surgery calculators and verification sweeps")
    parser.add_argument("--format", choices=("json", "csv", "text"),
                        default="json")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: SURGERYFORGE_JOBS "
                             "or 1)")
    parser.add_argument("--timing", action="store_true",
                        help="attach elapsed_ms to the report")
    sub = parser.add_subparsers(dest="module", required=True)

    p_cf = sub.add_parser("cf").add_subparsers(dest="op", required=True)
    p = p_cf.add_parser("eval")
    p.add_argument("word")
    p = p_cf.add_parser("expand")
    p.add_argument("value")
    p = p_cf.add_parser("solve-tail")
    p.add_argument("prefix")
    p.add_argument("j", type=int)

    p_lens = sub.add_parser("lens").add_subparsers(dest="op", required=True)
    p = p_lens.add_parser("normalize")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p = p_lens.add_parser("homeo")
    for name in ("p1", "q1", "p2", "q2"):
        p.add_argument(name, type=int)
    p.add_argument("--oriented", action="store_true")
    p = p_lens.add_parser("mirror")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p = p_lens.add_parser("from-surgery")
    p.add_argument("slope")

    p_ns = sub.add_parser("normseq").add_subparsers(dest="op", required=True)
    for name in ("reduce", "to-lens", "dual", "exponents"):
        p = p_ns.add_parser(name)
        p.add_argument("seq")

    p_sk = sub.add_parser("simpleknot").add_subparsers(dest="op", required=True)
    p = p_sk.add_parser("chi")
    for name in ("p", "q", "k"):
        p.add_argument(name, type=int)
    p = p_sk.add_parser("star")
    p.add_argument("p", type=int)
    p.add_argument("--eps", choices=("+1", "-1", "both"), default="both")
    p = p_sk.add_parser("genus-search")
    p.add_argument("lens")
    p.add_argument("genus", type=int)

    p_tg = sub.add_parser("tangle").add_subparsers(dest="op", required=True)
    p = p_tg.add_parser("two-bridge")
    p.add_argument("link")

    p_pent = sub.add_parser("pentangle").add_subparsers(dest="op", required=True)
    p = p_pent.add_parser("verify")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--jobs", type=int, dest="pjobs", default=None)
    p = p_pent.add_parser("simplifies")
    for name in ("nw", "ne", "sw", "se"):
        p.add_argument(name)
    p = p_pent.add_parser("montesinos")
    for name in ("nw", "ne", "sw", "se"):
        p.add_argument(name)
    p.add_argument("--x", required=True)

    p_fam = sub.add_parser("families").add_subparsers(dest="op", required=True)
    p = p_fam.add_parser("eval")
    p.add_argument("family")
    p.add_argument("params", nargs="+")
    p = p_fam.add_parser("census")
    p.add_argument("--tmax", type=int, default=5)
    p.add_argument("--seqmax", type=int, default=6)
    p = p_fam.add_parser("verify")
    p.add_argument("what", choices=("intersections", "alt-gofk"))
    p.add_argument("--bound", type=int, default=8)
    p = p_fam.add_parser("optsurg")
    p.add_argument("family", type=int)
    p.add_argument("k", type=int)
    p.add_argument("ell", type=int, nargs="?", default=None)
    p = p_fam.add_parser("fes-triple")

    args = parser.parse_args(argv)
    try:
        args.jobs = _resolve_jobs(args)
        return _dispatch(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args):
    started = time.monotonic()

    def emit(command, parameters, results, counterexamples=()):
        elapsed = int((time.monotonic() - started) * 1000)
        return _emit(args, command, parameters, results, counterexamples,
                     elapsed_ms=elapsed)

    mod, op = args.module, args.op

    if mod == "cf":
        if op == "eval":
            word = parse_cf(args.word)
            return emit("cf eval", {"word": str(word)},
                        {"value": str(word.value())})
        if op == "expand":
            x = parse_slope(args.value)
            seq = rationals.cf_expand_norm(x)
            return emit("cf expand", {"value": str(x)},
                        {"expansion": list(seq)})
        if op == "solve-tail":
            prefix = normseq.expand_blocks(normseq.parse_seq(args.prefix))
            tail = rationals.cf_solve_tail(prefix, args.j)
            return emit("cf solve-tail",
                        {"prefix": list(prefix), "j": args.j},
                        {"tail": str(tail)})

    if mod == "lens":
        if op == "normalize":
            return emit("lens normalize", {"p": args.p, "q": args.q},
                        {"lens": str(lens.LensSpace(args.p, args.q))})
        if op == "homeo":
            l1 = lens.LensSpace(args.p1, args.q1)
            l2 = lens.LensSpace(args.p2, args.q2)
            fn = lens.homeo_oriented if args.oriented else lens.homeo_unoriented
            return emit("lens homeo",
                        {"l1": str(l1), "l2": str(l2),
                         "oriented": args.oriented},
                        {"homeomorphic": fn(l1, l2)})
        if op == "mirror":
            return emit("lens mirror", {"p": args.p, "q": args.q},
                        {"mirror": str(lens.mirror(lens.LensSpace(args.p, args.q)))})
        if op == "from-surgery":
            r = parse_slope(args.slope)
            return emit("lens from-surgery", {"slope": str(r)},
                        {"lens": str(lens.from_surgery(r))})

    if mod == "normseq":
        items = normseq.parse_seq(args.seq)
        if op == "reduce":
            red = normseq.reduce_seq(items)
            return emit("normseq reduce", {"seq": normseq.format_items(items)},
                        {"reduced": str(red), "kind": red.kind,
                         "lens": str(normseq.to_lens(red))})
        if op == "to-lens":
            return emit("normseq to-lens", {"seq": normseq.format_items(items)},
                        {"lens": str(normseq.to_lens(items))})
        if op == "dual":
            dual = normseq.riemenschneider_dual(items)
            return emit("normseq dual", {"seq": normseq.format_items(items)},
                        {"dual": str(dual)})
        if op == "exponents":
            sums = normseq.gofk_exponent_sums(normseq.reduce_seq(items))
            return emit("normseq exponents",
                        {"seq": normseq.format_items(items)},
                        {"exponent_sums": sorted(sums)})

    if mod == "simpleknot":
        if op == "chi":
            knot = simpleknot.SimpleKnot(args.p, args.q, args.k)
            chi = simpleknot.euler_char(knot)
            try:
                genus = simpleknot.genus_primitive(knot)
            except ValueError:
                genus = None
            return emit("simpleknot chi",
                        {"p": args.p, "q": args.q, "k": args.k},
                        {"p": args.p, "q": args.q, "k": args.k, "chi": chi,
                         "genus": genus, "order": knot.homological_order})
        if op == "star":
            if args.p < 2:
                raise ValueError(f"p must be >= 2, got {args.p}")
            epss = {"+1": (1,), "-1": (-1,), "both": (1, -1)}[args.eps]
            results = {}
            for eps in epss:
                sols = simpleknot.star_solutions(args.p, eps)
                results[f"eps={eps:+d}"] = {
                    "raw": [{"k": s.k, "q": s.q} for s in sols],
                    "canonical": list(simpleknot.star_canonical(args.p, eps)),
                }
            return emit("simpleknot star", {"p": args.p, "eps": args.eps},
                        results)
        if op == "genus-search":
            space = lens.parse_lens(args.lens)
            if args.genus < 0:
                raise ValueError(f"genus must be >= 0, got {args.genus}")
            knots = simpleknot.knots_with_genus(space, args.genus)
            return emit("simpleknot genus-search",
                        {"lens": str(space), "genus": args.genus},
                        {"knots": [str(k) for k in knots]})

    if mod == "tangle":
        if op == "two-bridge":
            text = args.link.strip()
            if not (text.startswith("Q(") and text.endswith(")")):
                raise ValueError("expected Q(a/b,c/d,e/f)")
            factors = tuple(parse_slope(part)
                            for part in text[2:-1].split(","))
            link = tangle.MontesinosLink(factors)
            return emit("tangle two-bridge", {"link": str(link)},
                        {"two_bridge_necessary": tangle.montesinos_is_two_bridge(link)})

    if mod == "pentangle":
        if op == "verify":
            # jobs only partitions the sweep; it never appears in the report
            report = pentangle.verify_simplification(args.bound,
                                                     jobs=args.jobs)
            return emit("pentangle verify",
                        {"bound": args.bound},
                        {"bound": report.bound,
                         "slope_count": report.slope_count,
                         "tuples_checked": report.tuples_checked,
                         "necessary_all_three": report.necessary_all_three,
                         "simplified": report.simplified},
                        report.counterexamples)
        if op == "simplifies":
            f = pentangle.P5Filling(*(parse_slope(s) for s in
                                      (args.nw, args.ne, args.sw, args.se)))
            return emit("pentangle simplifies", {"filling": str(f)},
                        {"nonhyperbolic": pentangle.is_nonhyperbolic(f),
                         "factors": pentangle.factors_through_P3(f).value,
                         "simplifies": pentangle.simplifies(f)})
        if op == "montesinos":
            f = pentangle.P5Filling(*(parse_slope(s) for s in
                                      (args.nw, args.ne, args.sw, args.se)))
            x = parse_slope(args.x)
            links = pentangle.montesinos_presentations(f, x)
            return emit("pentangle montesinos",
                        {"filling": str(f), "x": str(x)},
                        {"presentations": [str(l) for l in links],
                         "two_bridge_necessary":
                             pentangle.two_bridge_necessary(f, x)})

    if mod == "families":
        if op == "eval":
            params = _parse_params(args.family, args.params)
            triple = families.family_triple(args.family, params)
            return emit("families eval",
                        {"family": args.family,
                         "params": [str(p) for p in params]},
                        {str(f.slot): str(f.lens) for f in triple})
        if op == "census":
            report = families.gofklens_census(args.tmax, args.seqmax)
            ces = [("extra", str(e)) for e in report.extras]
            ces += [("missing", str(m)) for m in report.missing]
            return emit("families census",
                        {"tmax": args.tmax, "seqmax": args.seqmax},
                        {"entries": [str(e) for e in report.entries],
                         "witnesses": report.witnesses},
                        ces)
        if op == "verify" and args.what == "intersections":
            report = families.verify_three_filling_intersections(args.bound)
            return emit("families verify intersections",
                        {"bound": args.bound},
                        {"case_1a": list(report.case_1a),
                         "case_1b": list(report.case_1b),
                         "case_2a": list(report.case_2a),
                         "case_2b_count": report.case_2b_count,
                         "case_3a": list(report.case_3a),
                         "case_3b_matches_3a": report.case_3b_matches_3a},
                        report.counterexamples)
        if op == "verify" and args.what == "alt-gofk":
            report = families.alt_gofk_pipeline()
            return emit("families verify alt-gofk", {},
                        {"census_ok": report.census_ok,
                         "survivors": list(report.survivors_after_filters),
                         "exponent_filter": report.exponent_filter,
                         "star_stage": report.star_stage,
                         "genus_stage": report.genus_stage,
                         "final": list(report.final)},
                        report.counterexamples)
        if op == "optsurg":
            pair = families.optsurg_catalog(args.family, args.k, args.ell)
            return emit("families optsurg",
                        {"family": args.family, "k": args.k,
                         "ell": args.ell},
                        [{"knot": d, "lens": str(l)} for d, l in pair])
        if op == "fes-triple":
            data = families.figure_eight_sister_triple()
            return emit("families fes-triple", {},
                        {key: ([{"knot": d, "lens": str(l)} for d, l in val]
                               if key != "triple" else list(val))
                         for key, val in data.items()})

    raise ValueError(f"unhandled command {mod} {op}")


if __name__ == "__main__":
    sys.exit(main())
