"""Per-layer tracing of one ``surgeryforge`` CLI process, from outside the
package.

Run as ``python perfbench/tracer.py <cli args...>`` with ``src`` on
``PYTHONPATH``.  It imports ``surgeryforge.cli`` (timing the import),
wraps every public function of every package module, runs ``cli.main`` and
writes one JSON object of per-function counters to file descriptor 3, which
the caller must open.  Stdout, stderr and the exit code are those of the
plain CLI.

Modules import each other's functions by name (``from .normseq import
riemenschneider_dual`` in ``families``), so a wrapper is installed on every
module attribute that is bound to the original function, not only on the
defining module.  Calls made through tables built at import time (such as
``pentangle.SYMMETRIES``) still reach the unwrapped function and count as
their caller's self time.  Spans recorded inside fork-pool workers stay in
the workers and are lost.
"""

import inspect
import json
import os
import sys
import time

MODULES = ("rationals", "lens", "normseq", "simpleknot", "tangle",
           "pentangle", "families", "cli")

# Functions whose truthy results are counted, for a useful-work ratio.
HIT_COUNTED = frozenset({"normseq.gofk_exponent_sums"})


class Tracer:
    """Aggregated spans: per function, calls, self seconds and truthy
    results.  Self time is a span's duration minus its child spans."""

    def __init__(self):
        self.stats = {}
        self._stack = []

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        count_hits = name in HIT_COUNTED

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count_hits and result:
                    stat[2] += 1
                return result
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat[0] += 1
                stat[1] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return traced

    def install(self, package):
        """Wrap each public function of the package's modules on every
        module binding that refers to it."""
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"{package}.{short}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self.wrap(f"{short}.{name}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])


def main(argv):
    start = time.perf_counter()
    import surgeryforge.cli as cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install("surgeryforge")
    try:
        return cli.main(argv)
    finally:
        with os.fdopen(3, "w") as out:
            json.dump({"import_s": import_s, "functions": tracer.stats}, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
