"""The weaklg benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload verify-corpus --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout.  Each pass of the workload runs in a
fresh interpreter (child.py), as a user's `lg` call does, so it pays the cold
Newton-polytope cache and the per-call corpus reload every time.  Passes run
one after another, one item at a time (a closed loop with one client), until
the next pass would end after --seconds; each metric is the median over the
passes.  End-to-end times are given in reference slices (child.HostSpeed),
which cancels most of a shared host's speed drift; the raw seconds are
printed with them.  Set-up time is measured by set-up probes run between the
passes, each paired with a reference set-up (setup_seconds).  Every item's
output is checked against the oracles in oracles.py and against the output
frozen at commit 5b64db1 (frozen/, written by freeze.py).

With --trace 0 the last line reports the end-to-end metrics of untraced
passes.  With --trace 1 untraced and traced passes alternate, and the last
line reports per-layer self times and counts from the traced passes (spans
recorded by tracing.py), plus the tracing overhead.  A summary, the run's
metadata, and the spans of the last traced pass go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import params

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "weaklg"
OUT_DIR = ROOT / ".perfbench_out"
PASS_TIMEOUT_S = 150
MIN_ITEM_SAMPLES = 5
# One set-up probe per PROBE_EVERY_S of the previous pass, and at least one,
# before each untraced pass.  A probe's set-up time is scaled to a host on
# which the reference set-up takes REFERENCE_SETUP_NOMINAL_S.
PROBE_EVERY_S = 2.5
REFERENCE_SETUP_NOMINAL_S = 0.05

# Reported in the result line.  A *_ref time is in reference slices: seconds
# divided by the mean wall time of child.reference_slice sampled during the
# same item, which cancels the host's speed drift (child.HostSpeed).
# setup_s is in seconds at a fixed reference speed (setup_seconds).
END_TO_END = (("run_ref", "ref"), ("item_max_ref", "ref"), ("cpu_ref", "ref"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
# Printed with them: the same times in raw seconds, the slice itself, and the
# median raw set-up times of the probes and of the reference set-ups.
RAW = (("run_s", "s"), ("item_max_s", "s"), ("cpu_s", "s"), ("setup_raw_s", "s"), ("reference_ms", "ms"),
       ("reference_setup_s", "s"))

# (metric, unit, source): "self:<layer>" is the layer's self time from
# tracing.LAYERS, "count:<key>" a counter the wrappers add up.
PER_LAYER = (
    ("series.kernel_s", "s", "self:series.kernel"),
    ("series.kernel_calls", "count", "count:series.kernel_calls"),
    ("series.support_in", "count", "count:series.support_in"),
    ("series.coeffs_out", "count", "count:series.coeffs_out"),
    ("series.max_coeff_bits", "bits", "count:series.max_coeff_bits"),
    ("series.closed_form_s", "s", "self:series.closed_form"),
    ("series.shift_s", "s", "self:series.shift"),
    ("polytopes.hull_s", "s", "self:polytopes.hull"),
    ("polytopes.hull_misses", "count", "hull_misses"),
    ("polytopes.hull_hits", "count", "hull_hits"),
    ("polytopes.hull_points_in", "count", "count:polytopes.hull_points_in"),
    ("polytopes.facets_out", "count", "count:polytopes.facets_out"),
    ("polytopes.dual_s", "s", "self:polytopes.dual"),
    ("polytopes.volume_s", "s", "self:polytopes.volume"),
    ("polytopes.semiweak_s", "s", "self:polytopes.semiweak"),
    ("polytopes.ehrhart_s", "s", "self:polytopes.ehrhart"),
    ("polytopes.ehrhart_box_points", "count", "count:polytopes.ehrhart_box_points"),
    ("polytopes.ehrhart_hit_ratio", "ratio", "ehrhart_hit_ratio"),
    ("annihilator.find_s", "s", "self:annihilator.find"),
    ("annihilator.cells", "count", "count:annihilator.cells"),
    ("annihilator.unknowns", "count", "count:annihilator.unknowns"),
    ("corpus.load_s", "s", "self:corpus.load"),
    ("corpus.load_calls", "count", "count:corpus.load_calls"),
    ("corpus.verify_self_s", "s", "self:corpus.verify"),
    ("expr.parse_s", "s", "self:expr.parse"),
    ("expr.to_laurent_s", "s", "self:expr.to_laurent"),
    ("expr.substitute_s", "s", "self:expr.substitute"),
    ("expr.identity_s", "s", "self:expr.identity"),
    ("expr.identity_trials", "count", "count:expr.identity_trials"),
    ("laurent.arith_s", "s", "self:laurent.arith"),
    ("laurent.arith_calls", "count", "count:laurent.arith_calls"),
    ("constructors.build_s", "s", "self:constructors.build"),
    ("constructors.eliminate_s", "s", "self:constructors.eliminate"),
    ("cli.self_s", "s", "self:cli"),
    ("trace.run_s", "s", "run_s"),
    ("trace.overhead_s", "s", "overhead"),
    ("trace.covered_frac", "ratio", "covered_frac"),
    ("trace.spans", "count", "spans"),
)


class PassFailed(RuntimeError):
    """A child pass exited abnormally or printed no report."""


def run_child(args: list[str], tail: list[str], what: str) -> dict:
    """Run child.py with ARGS, its start time and TAIL; return its report."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, "-S", str(HERE / "child.py"), *args, repr(spawned), *tail], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{what} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_pass(workload: str, seed: int, index: int, trace: bool, spans_path: Path | None) -> dict:
    return run_child([workload, str(seed), str(index), "1" if trace else "0"],
                     [str(spans_path)] if spans_path else [], f"pass {index}")


def run_probe() -> dict:
    """weaklg's set-up time in a fresh interpreter, and right after it that
    of the reference set-up (child.REFERENCE_MODULES)."""
    return {"setup": run_child(["probe"], [], "set-up probe")["setup"],
            "reference": run_child(["reference"], [], "reference set-up")["setup"]}


def setup_seconds(probes: list[dict]) -> float:
    """Set-up time at the reference speed: the median over the probes of
    set-up over reference set-up, times REFERENCE_SETUP_NOMINAL_S.

    The host's speed drift moves raw set-up times by up to 1.5x between
    runs.  Reference slices (child.HostSpeed) slow down more than set-up
    does, which is partly process start and file reads; the reference
    set-up, of the same kind, moves with it within a few percent."""
    return statistics.median(p["setup"] / p["reference"] for p in probes) * REFERENCE_SETUP_NOMINAL_S


def layer_values(report: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its items."""
    trace = report["trace"]
    run_s = sum(i["wall"] for i in report["items"])
    counts = trace["counts"]
    box = counts.get("polytopes.ehrhart_box_points", 0)
    special = {
        "hull_misses": trace["hull_misses"],
        "hull_hits": trace["hull_hits"],
        "ehrhart_hit_ratio": counts.get("polytopes.ehrhart_lattice_points", 0) / box if box else 0.0,
        "run_s": run_s,
        "covered_frac": trace["covered"] / run_s,
        "spans": trace["spans"],
    }
    values = {}
    for metric, _, source in PER_LAYER:
        kind, _, key = source.partition(":")
        if kind == "self":
            values[metric] = trace["self"].get(key, 0.0)
        elif kind == "count":
            values[metric] = counts.get(key, 0)
        elif source in special:
            values[metric] = special[source]
    return values


def end_to_end(reports: list[dict]) -> dict[str, float]:
    """END_TO_END and RAW metrics: medians over untraced passes.

    A *_ref time divides each item's seconds by the mean reference slice
    timed during that item, or during the whole pass when the item was too
    short for MIN_ITEM_SAMPLES slices.
    """
    values: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        values.setdefault(name, []).append(value)

    for r in reports:
        reference = statistics.fmean(r["reference"])
        items = r["items"]
        refs = [statistics.fmean(i["reference"]) if len(i["reference"]) >= MIN_ITEM_SAMPLES else reference
                for i in items]
        add("run_s", sum(i["wall"] for i in items))
        add("item_max_s", max(i["wall"] for i in items))
        add("cpu_s", sum(i["cpu"] for i in items))
        add("run_ref", sum(i["wall"] / ref for i, ref in zip(items, refs)))
        add("item_max_ref", max(i["wall"] / ref for i, ref in zip(items, refs)))
        add("cpu_ref", sum(i["cpu"] / ref for i, ref in zip(items, refs)))
        add("reference_ms", reference * 1000)
        add("peak_rss_mb", r["peak_rss_kb"] / 1024)
    return {name: statistics.median(v) for name, v in values.items()}


def per_layer(traced: list[dict], untraced_run_s: float) -> dict[str, dict]:
    """Per-layer metrics: medians over traced passes; the overhead is the
    traced minus the untraced median run_s."""
    per_pass = [layer_values(r) for r in traced]
    metrics = {}
    for metric, unit, source in PER_LAYER:
        if source == "overhead":
            value = statistics.median(v["trace.run_s"] for v in per_pass) - untraced_run_s
        else:
            value = statistics.median(v[metric] for v in per_pass)
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text("utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text("utf-8").strip()
        for line in (git / "packed-refs").read_text("utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload: str, seed: int, seconds: int) -> dict:
    return {
        "revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": workload,
        "parameters": params.PARAMETERS[workload],
        "seed": seed,
        "seconds": seconds,
        "src_lines": sum(len(p.read_text("utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=params.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"error: no weaklg sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    checker = checks.Checker(args.workload)
    meta = metadata(args.workload, args.seed, args.seconds)
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json.gz"

    deadline = time.monotonic() + args.seconds
    untraced: list[dict] = []
    traced: list[dict] = []
    probes: list[dict] = []
    last_pass_s = 0.0
    longest = 0.0
    attempted = failed = 0
    failures: list[str] = []
    index = 0
    expected = len(params.items(args.workload))
    while True:
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        started = time.monotonic()
        for _ in range(0 if args.trace else max(1, round(last_pass_s / PROBE_EVERY_S))):
            try:
                probes.append(run_probe())
            except (PassFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
                attempted += 1
                failed += 1
                failures.append(f"before pass {index}: {err}")
        pass_started = time.monotonic()
        try:
            report = run_pass(args.workload, args.seed, index, trace_this, spans_path if trace_this else None)
        except (PassFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
            attempted += expected
            failed += expected
            failures.append(f"pass {index}: {err}")
            report = None
        last_pass_s = time.monotonic() - pass_started
        longest = max(longest, time.monotonic() - started)
        if report is not None:
            for item in report["items"]:
                attempted += 1
                problems = [f"raised: {item['error']}"] if item["error"] else checker(
                    item["item"], item["exit"], item["output"])
                if problems:
                    failed += 1
                    failures.append(f"pass {index} item {item['item']}: " + "; ".join(problems))
                del item["output"]
            (traced if trace_this else untraced).append(report)
        index += 1
        enough = bool(untraced) and (bool(traced) or not args.trace)
        if enough and time.monotonic() + longest > deadline:
            break
        if not enough and report is None:
            break

    metrics = {}
    e2e = end_to_end(untraced) if untraced else {}
    if e2e and probes:
        e2e["setup_s"] = setup_seconds(probes)
        e2e["setup_raw_s"] = statistics.median(p["setup"] for p in probes)
        e2e["reference_setup_s"] = statistics.median(p["reference"] for p in probes)
    if e2e and not args.trace and probes:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    elif e2e and traced:
        metrics = per_layer(traced, e2e["run_s"])
    fail_frac = failed / attempted if attempted else 1.0
    correct = bool(metrics) and failed == 0

    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; {len(probes)} set-up probes; "
          f"{attempted} attempted, {failed} failed")
    for failure in failures[:20]:
        print("FAIL " + failure)
    print(f"fail_frac = {fail_frac:.6g} ratio")
    for name, unit in RAW:
        if name in e2e:
            print(f"{name} = {e2e[name]:.6g} {unit}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    summary = {"meta": meta, "metrics": metrics, "end_to_end": e2e, "fail_frac": fail_frac, "failures": failures,
               "passes": {"untraced": untraced, "traced": traced},
               "probes": probes}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, sort_keys=True, indent=1) + "\n", "utf-8")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
