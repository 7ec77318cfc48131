"""Output checks: independent oracles plus byte-for-byte frozen output.

Each check returns a list of failure messages for one item; an empty list
means the item passed.  Only oracles.py supplies expected values here; the
frozen outputs in frozen/ were written by freeze.py at commit 5b64db1 and
are a regression guard, not evidence of correctness.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from math import comb
from pathlib import Path

import oracles
import params

HERE = Path(__file__).resolve().parent
FROZEN_DIR = HERE / "frozen"
CORPUS_PATH = HERE.parent / "src" / "weaklg" / "data" / "corpus.json"

# Entries whose series has no independent oracle; their check is labelled so.
REGRESSION_ONLY = (9, 10)


def load_frozen(workload: str) -> dict[str, dict]:
    return json.loads((FROZEN_DIR / f"{workload}.json").read_text("utf-8"))


@cache
def _reference_series() -> dict[int, list[int]]:
    doc = json.loads(CORPUS_PATH.read_text("utf-8"))
    return {e["id"]: [int(c) for c in e["reference_series"]["coeffs"]] for e in doc["entries"]}


def _check_verify(item: int, out: dict, references: dict[int, list[int]]) -> list[str]:
    problems = []
    series = [int(c) for c in out["series"]]
    if not out["passed"]:
        problems.append("verify reports passed=false")
    if item in oracles.SERIES_ORACLES:
        name, predict = oracles.SERIES_ORACLES[item]
        raw = predict(len(series) - 1)
        if oracles.recentre(raw) != series:
            problems.append(f"series differs from oracle {name}")
        if raw[1] != out["shift"]:
            problems.append(f"shift {out['shift']} differs from oracle {name} phi(1) = {raw[1]}")
    elif item in REGRESSION_ONLY:
        reference = oracles.recentre(references[item])
        upto = min(len(reference), len(series))
        if reference[:upto] != series[:upto]:
            problems.append("series differs from the corpus reference (regression-only check)")
    else:
        problems.append(f"entry {item} has no series check")
    dual_volume = out["semiweak"].get("dual_volume")
    if dual_volume != str(oracles.DEGREES[item]):
        problems.append(f"dual volume {dual_volume} differs from degree {oracles.DEGREES[item]}")
    return problems


def _check_pfop(item: int, out: dict, terms: int) -> list[str]:
    problems = []
    name, predict = oracles.SERIES_ORACLES[item]
    series = predict(terms)
    if not out["operators"]:
        problems.append("no operator found")
    for op in out["operators"]:
        if op["order"] != 3:
            problems.append(f"operator of order {op['order']}, expected 3")
        coeffs = [(l, j, Fraction(c)) for l, j, c in op["coeffs"]]
        if any(oracles.operator_residual(coeffs, series)):
            problems.append(f"operator does not annihilate the {name} series through t^{terms}")
    return problems


def _is_lattice(vertices: list[list[str]]) -> bool:
    return all("/" not in c for v in vertices for c in v)


def _check_polytopes(item: int, out: dict) -> list[str]:
    problems = []
    if item in oracles.DEGREES and out["dual"]["normalized_volume"] != str(oracles.DEGREES[item]):
        problems.append(f"dual volume {out['dual']['normalized_volume']} differs from degree {oracles.DEGREES[item]}")
    for name in ("newton", "dual"):
        p = out[name]
        counts = p["ehrhart_counts"]
        if _is_lattice(p["vertices"]):
            # A lattice polytope's counts follow its Ehrhart polynomial, and
            # 3! times the leading coefficient is the normalized volume.
            predicted = [oracles.interpolate_at(counts[:4], k) for k in range(4, len(counts))]
            if predicted != counts[4:]:
                problems.append(f"{name} counts at k >= 4 are not predicted by the cubic through k <= 3")
            if 6 * oracles.leading_coefficient(counts[:4]) != Fraction(p["normalized_volume"]):
                problems.append(f"{name} normalized volume disagrees with the Ehrhart leading coefficient")
    if item == 17:
        expected = [comb(4 * k + 3, 3) for k in range(len(out["dual"]["ehrhart_counts"]))]
        if out["dual"]["ehrhart_counts"] != expected:
            problems.append("entry 17 dual counts differ from C(4k+3, 3)")
    return problems


def _check_model(out: dict, power_terms: int, power_sum: int) -> list[str]:
    problems = []
    verdicts = [out["grassmannian_replay"], *out["weighted_replays"].values(), *out["round_trips"]["polynomials"]]
    if not all(v["equal"] for v in verdicts):
        problems.append("an identity test reported unequal")
    if not all(p["same_polynomial"] for p in out["round_trips"]["polynomials"]):
        problems.append("a render/parse round trip changed the polynomial")
    for row in out["ci_builds"]["ci"]:
        # prod_i (x_i1 + ... + x_i,k-1 + 1)^k has C(2k-1, k) terms per block;
        # the k0 = N - sum(degrees) linear y terms are distinct from them.
        expected = 1
        for k in row["degrees"]:
            expected *= comb(2 * k - 1, k)
        expected += row["N"] - sum(row["degrees"])
        if row["terms"] != expected:
            problems.append(f"hori_vafa_ci({row['N']}, {row['degrees']}) has {row['terms']} terms, expected {expected}")
    power = out["ci_builds"]["power"]
    if power["terms"] != power_terms or int(power["coefficient_sum"]) != power_sum:
        problems.append("expanded power has the wrong term count or coefficient sum")
    return problems


def oracle_problems(workload: str, item: int, out: dict) -> list[str]:
    """Oracle checks of one item's parsed output."""
    if workload == "verify-corpus":
        return _check_verify(item, out, _reference_series())
    if workload == "operator-search":
        return _check_pfop(item, out, params.PFOP_TERMS)
    if workload == "polytope-geometry":
        return _check_polytopes(item, out)
    # (x+y+z+1)^n has C(n+3, 3) monomials, and its coefficients sum to 4^n.
    n = params.POWER_EXPONENT
    return _check_model(out, comb(n + 3, 3), 4 ** n)


class Checker:
    """Checks items of one workload: exit code, frozen bytes, oracles."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.frozen = load_frozen(workload)

    def __call__(self, item: int, code: int | None, text: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        key = "round" if self.workload == "model-construction" else str(item)
        problems = [] if text == self.frozen[key] else ["output differs from the frozen output"]
        return problems + oracle_problems(self.workload, item, json.loads(text))
