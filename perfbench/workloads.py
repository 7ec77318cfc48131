"""What one item of each workload does.

Imported only by the child process that runs a pass, after weaklg has been
imported and the corpus loaded once.  Every item returns (exit code, text);
the text is what the parent checks against oracles and frozen output, so it
must not depend on the seed or on item order.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from weaklg import cli, constructors, expr, polytopes

from params import (
    ALTERNATE_ITEM,
    EHRHART_KMAX,
    IDENTITY_TRIALS,
    PFOP_TERMS,
    POWER_EXPONENT,
    VERIFY_TERMS,
)

XYZ = ("x", "y", "z")

# G(2,6) cut by five hyperplanes, eliminated and substituted back to entry 7.
GRASSMANNIAN_PLAN = [(0, "X11"), (4, "X42"), (1, "X21"), (2, "X31"), (3, "X41")]
GRASSMANNIAN_SUBS = {"X12": "x+y+z+1", "X22": "y+z+1", "X32": "z+1"}

# Weighted hypersurfaces eliminated and substituted back to entries 1, 11, 12
# (each lands on the corpus polynomial plus the constant 1).
WEIGHTED_REPLAYS = (
    (1, (1, 1, 1, 1, 3), 6, (1, 1, 1, 3),
     {"y1": "x/(x+y+z+1)", "y2": "y/(x+y+z+1)", "y3": "z/(x+y+z+1)"}),
    (11, (1, 1, 1, 2, 3), 6, (1, 2, 3), {"y1": "z", "y2": "x/(x+y+1)", "y3": "y/(x+y+1)"}),
    (12, (1, 1, 1, 1, 2), 4, (1, 1, 2), {"y1": "z", "y2": "x/(x+y+1)", "y3": "y/(x+y+1)"}),
)
WEIGHTED_PLAN = [(1, "y4"), (0, "y0")]

CI_ROWS = ((4, (4,)), (5, (2, 3)), (6, (2, 2, 2)), (4, (3,)), (5, (2, 2)), (4, (2,)), (3, ()))


def _lg(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=1)


def _polytope(entries, item: int) -> str:
    if item == ALTERNATE_ITEM:
        entry = entries[10]
        f = entry.alternate_laurents()[0]
    else:
        entry = entries[item - 1]
        f = entry.laurent()
    newton = polytopes.newton_polytope(f)
    dual = polytopes.dual_polytope(newton)
    payload = {"semiweak": polytopes.semiweak_check(f, entry.degree).to_json_dict()}
    for name, p in (("newton", newton), ("dual", dual)):
        counts = polytopes.ehrhart_counts(p, EHRHART_KMAX)
        payload[name] = {
            **p.to_json_dict(),
            "normalized_volume": str(polytopes.normalized_volume(p)),
            "ehrhart_counts": counts.counts,
            "ehrhart_polynomial": [str(c) for c in counts.polynomial],
        }
    return _dumps(payload)


def _identity(left, right, rng: random.Random) -> dict:
    result = expr.random_equal(left, right, trials=IDENTITY_TRIALS, seed=rng.randrange(2**32))
    return {"equal": result.equal, "trials": result.trials}


def _grassmannian_replay(entries, rng: random.Random) -> dict:
    model = constructors.grassmannian_hyperplane_system(2, 6, 5)
    result = constructors.eliminate(model, GRASSMANNIAN_PLAN)
    subs = {k: expr.parse(v) for k, v in GRASSMANNIAN_SUBS.items()}
    lhs = expr.substitute(result.expression, subs)
    rhs = expr.parse("5 + " + entries[6].polynomial)
    return {"expression": expr.render(result.expression), **_identity(lhs, rhs, rng)}


def _weighted_replays(entries, rng: random.Random) -> dict:
    out = {}
    for entry_id, weights, degree, partition, subs in WEIGHTED_REPLAYS:
        model = constructors.weighted_hypersurface_system(weights, degree, partition)
        result = constructors.eliminate(model, WEIGHTED_PLAN)
        lhs = expr.substitute(result.expression, {k: expr.parse(v) for k, v in subs.items()})
        rhs = expr.parse(entries[entry_id - 1].polynomial + " + 1")
        out[str(entry_id)] = {"expression": expr.render(result.expression), **_identity(lhs, rhs, rng)}
    return out


def _round_trips(entries, rng: random.Random) -> dict:
    texts = [e.polynomial for e in entries] + list(entries[10].alternates)
    out = []
    for text in texts:
        tree = expr.parse(text)
        f = expr.to_laurent(tree, XYZ)
        rendered = f.render(XYZ)
        again = expr.parse(rendered)
        out.append({
            "rendered": rendered,
            "same_polynomial": expr.to_laurent(again, XYZ) == f,
            **_identity(tree, again, rng),
        })
    return {"polynomials": out}


def _ci_builds(entries, rng: random.Random) -> dict:
    rows = []
    for ambient, degrees in CI_ROWS:
        f = constructors.hori_vafa_ci(ambient, degrees)
        rows.append({"N": ambient, "degrees": list(degrees), "terms": len(f),
                     "polynomial": f.render(constructors.hori_vafa_variables(ambient, degrees))})
    power = expr.to_laurent(expr.parse(f"(x+y+z+1)^{POWER_EXPONENT}"), XYZ)
    return {"ci": rows, "power": {"terms": len(power), "coefficient_sum": str(sum(power.terms.values()))}}


MODEL_STEPS = {
    "grassmannian_replay": _grassmannian_replay,
    "weighted_replays": _weighted_replays,
    "round_trips": _round_trips,
    "ci_builds": _ci_builds,
}


def run_item(workload: str, item: int, entries, rng: random.Random) -> tuple[int, str]:
    """Run one item; rng drives only choices that must not change the output."""
    if workload == "verify-corpus":
        return _lg(["verify", "--entry", str(item), "--terms", str(VERIFY_TERMS), "--format", "json"])
    if workload == "operator-search":
        return _lg(["pfop", "--entry", str(item), "--terms", str(PFOP_TERMS), "--format", "json"])
    if workload == "polytope-geometry":
        return 0, _polytope(entries, item)
    if workload == "model-construction":
        order = list(MODEL_STEPS)
        rng.shuffle(order)
        payload = {name: MODEL_STEPS[name](entries, rng) for name in order}
        return 0, _dumps(payload)
    raise ValueError(f"unknown workload {workload!r}")
