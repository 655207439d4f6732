#!/usr/bin/env python3
"""The surgeryforge benchmark: verification sweeps and calculator commands
run as real CLI processes, checked against references, with end-to-end and
per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --ladder 12 [--jobs 2]   # one JSON line per bound
    python3 perfbench/run.py --selftest               # tiny sizes, checker self-check
    python3 perfbench/run.py --record                 # rewrite digests.json

One closed-loop client issues each ``python -m surgeryforge.cli`` command
(``src`` on ``PYTHONPATH``) only after the previous one exits.  After an
untimed warm-up it runs a fixed number of passes over the workload's
commands, sized from ``--seconds``.  ``--trace 0`` runs the fixed reference
work of reference.py between commands, scales every time to the reference
speed and reports the end-to-end metrics of BENCHMARK.json as medians over
the passes; ``--trace 1`` runs each pass untraced and then traced and
reports the per-layer metrics.  The line before the result carries the
details: sample counts, failed commands, unscaled times, machine and
source identity, tracing overhead.
"""

import argparse
import compileall
import hashlib
import json
import marshal
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = Path.cwd()
CLI = ("-m", "surgeryforge.cli")
TRACED_CLI = (str(HERE / "tracer.py"),)
REFERENCE = (str(HERE / "reference.py"),)
# Times are scaled to the host speed at which the reference work takes this
# long.  Each command is scaled by the median of the reference runs nearest
# to it: this many on each side.
REFERENCE_S = 0.2
CALIBRATION_WINDOW = 2
COMMAND_TIMEOUT_S = 120


@dataclass
class Result:
    rc: int
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float
    rss_mb: float
    trace: dict = None


class Client:
    """The closed-loop client: runs one CLI command at a time through the
    spawner process and returns its measured result."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p)
        env["SURGERYFORGE_JOBS"] = "1"
        self._proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        marshal.dump(env, self._proc.stdin)

    def run(self, argv, traced=False):
        return self._spawn(TRACED_CLI if traced else CLI, argv, traced)

    def reference(self):
        return self._spawn(REFERENCE, (), False)

    def _spawn(self, prefix, argv, traced):
        marshal.dump(([sys.executable, *prefix, *argv], traced,
                      COMMAND_TIMEOUT_S), self._proc.stdin)
        self._proc.stdin.flush()
        rc, out, err, trace, wall, cpu, rss_kib = marshal.load(self._proc.stdout)
        return Result(rc=rc, stdout=out, stderr=err, wall=wall, cpu=cpu,
                      rss_mb=rss_kib / 1024,
                      trace=json.loads(trace) if traced and trace else None)

    def close(self):
        self._proc.stdin.close()
        self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Tally:
    """Attempted and failed commands; failures outside the known defects
    make the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = []
        self.unexpected = []

    def check(self, cmd, res):
        self.attempted += 1
        reason = cmd.check(res.rc, res.stdout)
        if reason is None:
            return
        entry = {"argv": " ".join(cmd.argv), "reason": reason}
        self.failed.append(entry)
        if cmd.known_defect:
            entry["known_defect"] = cmd.known_defect
        else:
            entry["stderr"] = res.stderr.decode(errors="replace")[-300:]
            self.unexpected.append(entry)


def run_iteration(client, commands, tally, traced=False):
    results = []
    for cmd in commands:
        res = client.run(cmd.argv, traced)
        tally.check(cmd, res)
        results.append(res)
    return results


@dataclass
class Sample:
    cmd: workloads.Command
    res: Result
    pass_no: int
    group: int      # index of the reference run just before its group


def run_calibrated(client, plan, tally):
    """Runs the measured passes with the reference work before every
    ``plan.group`` commands and once after the last."""
    samples, refs = [], []
    for pass_no, commands in enumerate(plan.passes):
        for i, cmd in enumerate(commands):
            if i % plan.group == 0:
                refs.append(client.reference())
            res = client.run(cmd.argv)
            tally.check(cmd, res)
            samples.append(Sample(cmd, res, pass_no, len(refs) - 1))
    refs.append(client.reference())
    return samples, refs


def calibrate(sample, refs):
    """The sample's (wall, cpu) seconds scaled to the reference speed, by
    the reference runs around its group."""
    lo = max(0, sample.group - CALIBRATION_WINDOW + 1)
    window = refs[lo:sample.group + CALIBRATION_WINDOW + 1]
    return (sample.res.wall * REFERENCE_S
            / statistics.median(r.wall for r in window),
            sample.res.cpu * REFERENCE_S
            / statistics.median(r.cpu for r in window))


def end_to_end(samples, times):
    """Medians over passes of per-pass sums and maxima, and percentiles over
    the distinct commands of each command's median wall time; ``times``
    holds each sample's (wall, cpu)."""
    passes, by_argv = {}, {}
    for sample, t in zip(samples, times):
        passes.setdefault(sample.pass_no, []).append((sample, t))
        if not sample.cmd.setup:
            by_argv.setdefault(sample.cmd.argv, []).append(t[0])
    walls = [statistics.median(w) for w in by_argv.values()]
    p90 = (statistics.quantiles(walls, n=10, method="inclusive")[-1]
           if len(walls) > 1 else walls[0])
    return {
        "wall_s": statistics.median(
            sum(t[0] for s, t in ps if not s.cmd.setup)
            for ps in passes.values()),
        "cpu_s": statistics.median(
            sum(t[1] for s, t in ps if not s.cmd.setup)
            for ps in passes.values()),
        "peak_rss_mb": statistics.median(
            max(s.res.rss_mb for s, _ in ps) for ps in passes.values()),
        "setup_s": statistics.median(
            t[0] for s, t in zip(samples, times) if s.cmd.setup),
        "cmd_p50_ms": statistics.median(walls) * 1000,
        "cmd_p90_ms": p90 * 1000,
    }


def _pentangle_counts(results):
    tuples = necessary = 0
    for res in results:
        if res.rc != 0 or not res.stdout.startswith(b"{"):   # --help text
            continue
        report = json.loads(res.stdout)
        if report.get("command") == "pentangle verify":
            tuples += report["results"].get("tuples_checked", 0)
            necessary += report["results"].get("necessary_all_three", 0)
    return tuples, necessary


def per_layer(pairs, names):
    """Per traced pass: calls and self seconds per function, module
    roll-ups, the pentangle counts and tracing overhead."""
    n = len(pairs)
    funcs = {}
    import_s = []
    tuples = necessary = 0
    for _, traced in pairs:
        for res in traced:
            if res.trace is None:   # the process died before tracing began
                continue
            import_s.append(res.trace["import_s"])
            for name, (calls, self_s, hits) in res.trace["functions"].items():
                acc = funcs.setdefault(name, [0, 0.0, 0])
                acc[0] += calls
                acc[1] += self_s
                acc[2] += hits
        t, nec = _pentangle_counts(traced)
        tuples += t
        necessary += nec
    values = {
        "cli.import_s": statistics.median(import_s),
        "pentangle.tuples_checked": tuples / n,
        "pentangle.necessary_all_three": necessary / n,
        "pentangle.need_ratio": necessary / tuples if tuples else 0.0,
        "trace_overhead_s": statistics.median(
            sum(r.wall for r in t) - sum(r.wall for r in u) for u, t in pairs),
    }
    for name in names:
        if name in values:
            continue
        head, _, kind = name.rpartition(".")
        if "." not in head and kind == "self_s":   # module roll-up
            values[name] = sum(s for f, (_, s, _) in funcs.items()
                               if f.startswith(head + ".")) / n
            continue
        calls, self_s, hits = funcs.get(head, (0, 0.0, 0))
        if kind == "calls":
            values[name] = calls / n
        elif kind == "self_s":
            values[name] = self_s / n
        elif kind == "hit_ratio":
            values[name] = hits / calls if calls else 0.0
        else:
            raise SystemExit(f"no rule for per-layer metric {name!r}")
    return values


def run_workload(client, name, seed, seconds, trace, spec, tiny=False):
    passes = max(1, int(seconds / workloads.PASS_SECONDS[name]))
    if trace:       # each traced pass also runs untraced
        passes = max(1, passes // 2)
    plan = workloads.WORKLOADS[name](random.Random(seed),
                                     workloads.load_digests(), passes, tiny)
    tally = Tally()
    run_iteration(client, plan.warmup, tally)      # untimed warm-up

    if trace:
        pairs = [(run_iteration(client, commands, tally),
                  run_iteration(client, commands, tally, True))
                 for commands in plan.passes]
        section = spec["per_layer"]
        values = per_layer(pairs, [m["name"] for m in section])
        samples = {"traced_passes": len(pairs)}
    else:
        measured, refs = run_calibrated(client, plan, tally)
        section = spec["end_to_end"]
        values = end_to_end(measured, [calibrate(s, refs) for s in measured])
        raw = end_to_end(measured, [(s.res.wall, s.res.cpu) for s in measured])
        samples = {"passes": len(plan.passes),
                   "commands": sum(not s.cmd.setup for s in measured),
                   "distinct_commands": len({s.cmd.argv for s in measured
                                             if not s.cmd.setup}),
                   "setup_runs": sum(s.cmd.setup for s in measured),
                   "reference_runs": len(refs)}
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "samples": samples,
        "failed_frac": {"value": len(tally.failed) / tally.attempted,
                        "unit": "ratio"},
        "failed_commands": tally.failed[:20],
        "machine": {"nproc": os.cpu_count(), "python": sys.version.split()[0]},
        "source": source_identity(),
    }
    if trace:
        detail["trace_overhead_s"] = values["trace_overhead_s"]
        detail["spans_lost"] = ("spans recorded inside fork-pool workers do "
                                "not reach the parent")
    else:
        detail["reference_s"] = {"median": statistics.median(r.wall for r in refs),
                                 "scaled_to": REFERENCE_S}
        detail["unscaled"] = raw
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section},
    }
    return detail, result


def source_identity():
    """Git SHA when the checkout is a git repository, and a digest of src/."""
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def ladder(client, max_bound, jobs):
    """The pentangle sweep at bounds 2..max_bound, one JSON line each."""
    digests = workloads.load_digests()
    status = 0
    for bound in range(2, max_bound + 1):
        cmd = workloads.pentangle_command(bound, jobs, digests)
        res = client.run(cmd.argv)
        reason = cmd.check(res.rc, res.stdout)
        report = json.loads(res.stdout) if res.stdout else {}
        counts = report.get("results", {})
        print(json.dumps({
            "bound": bound,
            "slopes": counts.get("slope_count"),
            "tuples": counts.get("tuples_checked"),
            "necessary_all_three": counts.get("necessary_all_three"),
            "simplified": counts.get("simplified"),
            "counterexamples": len(report.get("counterexamples", [])),
            "seconds": res.wall, "cpu_s": res.cpu, "peak_rss_mb": res.rss_mb,
            "digest_checked": workloads.digest_key(cmd.argv) in digests,
            "error": reason,
        }, sort_keys=True), flush=True)
        if reason:
            status = 1
    return status


def record(client):
    """Rewrite digests.json from the current source.  Only meaningful on the
    commit whose reports are the reference.  A one-line usage error (exit 2)
    is recorded as the reference; a crash is refused."""
    digests = {}
    for argv in workloads.digest_commands():
        res = client.run(argv)
        err = res.stderr.decode(errors="replace")
        clean_error = (res.rc == 2 and err.startswith("error: ")
                       and err.count("\n") == 1)
        if res.rc != 0 and not clean_error:
            raise SystemExit(f"refusing to record a failing command: "
                             f"{' '.join(argv)} (exit {res.rc})\n"
                             f"{err}")
        digests[workloads.digest_key(argv)] = workloads.stdout_digest(
            res.rc, res.stdout)
    workloads.DIGEST_FILE.write_text(json.dumps(digests, indent=0,
                                                sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests")
    return 0


def selftest(client, spec):
    """Every workload at a tiny size, traced and untraced, then a check that
    the checkers flag corrupted reports."""
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            detail, result = run_workload(client, name, 7, 0, trace, spec,
                                          tiny=True)
            defects = sum(1 for f in detail["failed_commands"]
                          if "known_defect" in f)
            if not result["correct"] or result["failed"] != defects:
                problems.append(f"{name} trace={trace}: {detail['failed_commands']}")
            print(f"selftest {name} trace={trace}: attempted "
                  f"{result['attempted']}, failed {result['failed']} "
                  f"(known defects {defects})", flush=True)

    cmd = workloads.pentangle_command(3, 1, workloads.load_digests())
    good = client.run(cmd.argv)
    report = json.loads(good.stdout)
    report["results"]["tuples_checked"] += 1
    off_by_one = json.dumps(report, sort_keys=True,
                            separators=(",", ":")).encode()
    oracles = {name: oracle for name, _, oracle in workloads.CALC_OPS}
    cf_check = workloads.check_results(oracles["cf eval"](("cf", "eval", "[3,2,2]")))
    wrong_cf = b'{"command":"cf eval","counterexamples":[],"results":{"value":"7/2"}}'
    cases = [
        ("an uncorrupted report passes", cmd.check(good.rc, good.stdout) is None),
        ("tuples_checked off by one is flagged",
         cmd.check(0, off_by_one) is not None),
        ("one changed byte is flagged",
         cmd.check(0, good.stdout.replace(b"0", b"1", 1)) is not None),
        ("a wrong cf eval value is flagged", cf_check(0, wrong_cf) is not None),
    ]
    problems += [f"checker: {label}: no" for label, ok in cases if not ok]
    for p in problems:
        print(f"selftest FAIL: {p}", file=sys.stderr)
    print("selftest " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ladder", type=int, metavar="N",
                    help="sweep pentangle bounds 2..N")
    ap.add_argument("--jobs", type=int, default=1, help="jobs for --ladder")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "surgeryforge" / "cli.py").is_file():
        print("error: run from the repository root (src/surgeryforge not found)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    if args.workload is None and not (args.record or args.selftest
                                      or args.ladder is not None):
        ap.error("--workload is required")
    with Client() as client:
        if args.record:
            return record(client)
        if args.selftest:
            return selftest(client, spec)
        if args.ladder is not None:
            return ladder(client, args.ladder, args.jobs)
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        detail, result = run_workload(client, args.workload, args.seed,
                                      seconds, args.trace, spec)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
