"""One pass of a workload, or one set-up probe, in a fresh interpreter.

Usage: child.py WORKLOAD SEED PASS TRACE SPAWNED [SPANS_PATH]
       child.py probe|reference SPAWNED

SPAWNED is the parent's time.monotonic() just before it started this
process; both clocks are CLOCK_MONOTONIC, so the difference is the set-up
time.  A pass prints one JSON line: set-up time, per-item wall and CPU time,
exit code and output text, the host-speed samples, peak RSS, and with TRACE=1
the per-layer numbers.  A probe sets up as a pass does, a reference imports
REFERENCE_MODULES instead; both print only the set-up time.
"""

import signal
import sys
import time
from pathlib import Path

SAMPLE_INTERVAL_S = 0.1
REFERENCE_REPEATS = 2  # about 1 ms on a 2.1 GHz Xeon: about 1% of the pass
REFERENCE_STEPS = ((1, 0, 0, 3), (0, 1, 0, 5), (0, 0, 1, 7), (-1, -1, -1, 11), (1, 1, 0, 13))
# A set-up of the same kind as weaklg's that shares no code with it: the
# stdlib modules the library imports.
REFERENCE_MODULES = ("argparse", "dataclasses", "fractions", "functools", "importlib.resources", "itertools", "json",
                     "math", "pathlib", "random", "types", "typing")


def reference_slice() -> None:
    """A fixed piece of pure-Python work of the library's kind: dict updates
    keyed by exponent tuples, with integer products."""
    for _ in range(REFERENCE_REPEATS):
        g = {(0, 0, 0): 1}
        for _ in range(6):
            nxt = {}
            for (a, b, c), v in g.items():
                for x, y, z, k in REFERENCE_STEPS:
                    key = (a + x, b + y, c + z)
                    nxt[key] = nxt.get(key, 0) + v * k
            g = nxt


class HostSpeed:
    """Times reference_slice every SAMPLE_INTERVAL_S of wall time while the
    items run, from a SIGALRM handler.

    The host's speed drifts with other tenants' load, by up to 1.7x and from
    sub-second to minute scales, and the slices drift with it; so an item's
    time divided by the mean slice time is steady where its raw time is not.
    `wall` and `cpu` add up the handler's own time, which the caller takes
    out of each item's time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0

    def _sample(self, signum, frame) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        reference_slice()
        wall = time.perf_counter() - wall0
        self.samples.append(wall)
        self.wall += wall
        self.cpu += time.process_time() - cpu0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        """Stop sampling, and take one last sample so that there is one."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample(signal.SIGALRM, None)


def set_up():
    """Set-up, as a user's `lg` call pays it: interpreter start (already
    paid), importing weaklg and the first corpus load.  Returns the corpus
    and the time it was ready."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import weaklg

    return weaklg.corpus.load_corpus(), time.monotonic()


def probe(kind: str, spawned: str) -> None:
    """Set up and print the set-up time: weaklg's set-up for "probe", the
    stdlib imports of REFERENCE_MODULES for "reference"."""
    if kind == "probe":
        _, ready = set_up()
    else:
        import importlib

        for name in REFERENCE_MODULES:
            importlib.import_module(name)
        ready = time.monotonic()
    sys.stdout.write(f'{{"setup": {ready - float(spawned)!r}}}\n')


def main() -> None:
    if sys.argv[1] in ("probe", "reference"):
        probe(sys.argv[1], sys.argv[2])
        return
    workload, seed, pass_index, trace, spawned = sys.argv[1:6]
    entries, ready = set_up()

    import json
    import random
    import resource
    import traceback

    import params
    import workloads
    from tracing import Tracer

    spans_path = sys.argv[6] if len(sys.argv) > 6 else None
    rng = random.Random(f"{seed}:{pass_index}")
    order = params.items(workload)
    rng.shuffle(order)
    tracer = None
    if trace == "1":
        tracer = Tracer()
        tracer.install()
    # Untraced passes sample the host's speed; traced ones do not, so that
    # no slice lands inside a span.
    host = HostSpeed()
    if tracer is None:
        host.start()
    results = []
    for item in order:
        if tracer is not None:
            tracer.item = item
        wall0, cpu0 = time.perf_counter(), time.process_time()
        host_wall0, host_cpu0, host_n0 = host.wall, host.cpu, len(host.samples)
        try:
            code, text = workloads.run_item(workload, item, entries, rng)
            error = None
        except Exception:  # an item that raises is reported as failed, the pass goes on
            code, text, error = None, "", traceback.format_exc()
        wall = time.perf_counter() - wall0 - (host.wall - host_wall0)
        cpu = time.process_time() - cpu0 - (host.cpu - host_cpu0)
        results.append({"item": item, "wall": wall, "cpu": cpu, "exit": code, "output": text, "error": error,
                        "reference": host.samples[host_n0:]})
    host.stop()
    report = {
        "setup": ready - float(spawned),
        "items": results,
        "reference": host.samples,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        selfs, covered = tracer.layer_times()
        hits, misses = tracer.hull_cache()
        report["trace"] = {"self": selfs, "covered": covered, "counts": tracer.counts,
                           "hull_hits": hits, "hull_misses": misses, "spans": len(tracer.spans)}
        if spans_path:
            tracer.write(spans_path)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
