from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
import unittest.mock
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import weaklg
from weaklg import cli
from weaklg.annihilator import MAX_DEGREE, MAX_ORDER, determined
from weaklg.cli import main
from weaklg.corpus import get_entry
from weaklg.series import constant_term_series


def run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_series_text_output() -> None:
    code, out, err = run("series", "--poly", "x+1/x", "--terms", "4")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "phi(0) = 1",
        "phi(1) = 0",
        "phi(2) = 2",
        "phi(3) = 0",
        "phi(4) = 6",
    ]
    # a leading minus takes the whole power: -x^2 + 1/x^2 is 1/x^2 - x^2
    for poly in ("--poly=-x^2+1/x^2", "--poly=1/x^2-x^2"):
        assert run("series", poly, "--terms", "2") == (0, "phi(0) = 1\nphi(1) = 0\nphi(2) = -2\n", "")


def test_series_json_output_is_decimal_strings() -> None:
    code, out, _ = run("series", "--entry", "17", "--terms", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["series"] == ["1", "0", "0", "0", "24", "0", "0", "0", "2520"]
    assert doc["terms"] == 8


@pytest.mark.parametrize(
    "source, terms",
    [(("--poly", "0"), 5), (("--entry", "17"), 12), (("--poly", "x+1/x"), 1), (("--poly", "2*x-3+1/x"), 7)],
)
def test_series_json_is_written_as_one_document_would_be(source: tuple[str, str], terms: int) -> None:
    code, out, err = run("series", *source, "--terms", str(terms), "--format", "json")
    assert code == 0 and err == ""
    _, text, _ = run("series", *source, "--terms", str(terms))
    payload = {"series": [line.split(" = ")[1] for line in text.splitlines()], "terms": terms}
    assert len(payload["series"]) == terms + 1
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def peak_rss_kb(*argv: str) -> int:
    """ru_maxrss of a fresh interpreter that runs cli.main(argv), output
    discarded."""
    package_root = str(Path(weaklg.__file__).resolve().parent.parent)
    script = (
        "import resource, sys\n"
        "from weaklg.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.stdout.flush()\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    code, peak = proc.stderr.split()
    assert code == "0"
    return int(peak)


def test_series_json_peak_memory_is_close_to_text() -> None:
    # 10^6 coefficients: held as one JSON document they took about 150 MB
    # more than the text output
    argv = ("series", "--poly", "0", "--terms", "1000000")
    text, as_json = peak_rss_kb(*argv), peak_rss_kb(*argv, "--format", "json")
    assert as_json <= text * 1.1 + 4096


def test_series_requires_exactly_one_source() -> None:
    assert run("series")[0] == 2
    assert run("series", "--entry", "17", "--poly", "x")[0] == 2


def test_list_includes_all_entries_and_check_kinds() -> None:
    code, out, _ = run("list", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [e["id"] for e in doc["entries"]] == list(range(1, 18))
    by_id = {e["id"]: e for e in doc["entries"]}
    assert "ci" in by_id[17]["checks"]
    assert "alternates" in by_id[11]["checks"]
    # only the checks verify runs: entries 1, 11 and 12 carry weighted data
    # that verify does not read
    assert {c for e in doc["entries"] for c in e["checks"]} == {"reference", "ci", "alternates"}


def test_verify_single_entry_exits_zero() -> None:
    code, out, _ = run("verify", "--entry", "7", "--terms", "6")
    assert code == 0
    assert "pass" in out.lower()


def test_verify_all_exits_zero_on_healthy_corpus() -> None:
    code, out, _ = run("verify-all", "--terms", "6")
    assert code == 0
    assert out.count("pass") >= 17


def test_verify_reports_mismatch_with_exit_one(tmp_path: Path) -> None:
    import importlib.resources as res

    with (res.files("weaklg") / "data" / "corpus.json").open() as fh:
        doc = json.load(fh)
    for e in doc["entries"]:
        if e["id"] == 7:
            e["reference_series"]["coeffs"][3] = "761"
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run("verify", "--entry", "7", "--terms", "6", "--corpus", str(bad))
    assert code == 1
    assert "  reference: MISMATCH at t^3: 312 != 313" in out.splitlines()
    code, out, _ = run("verify-all", "--terms", "6", "--corpus", str(bad))
    assert code == 1
    verdicts = [line for line in out.splitlines() if line.startswith(("entry ", "  passed: "))]
    assert [line.split(":")[0] for line in verdicts[0::2]] == [f"entry {k}" for k in range(1, 18)]
    assert verdicts[1::2] == ["  passed: " + str(k != 7) for k in range(1, 18)]
    assert out.endswith("overall: FAIL\n")
    code, out, _ = run("verify-all", "--terms", "6", "--corpus", str(bad), "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert [r["entry"] for r in doc["reports"] if not r["passed"]] == [7]
    assert doc["reports"][6]["reference"] == {
        "first_mismatch": 3, "left": "312", "matched": False, "right": "313", "upto": 6}


def test_verify_reads_a_long_reference_only_through_its_terms(tmp_path: Path) -> None:
    # normalizing a stored reference costs the square of its length; entry
    # 17's, given phi(1) = 5 and 1,502 coefficients, took 25 s in full
    coeffs = json.loads(corpus_copy(tmp_path, {}).read_text())["entries"][16]["reference_series"]["coeffs"]
    coeffs[1] = "5"
    outputs = []
    for name, kept in (("long", coeffs + ["0"] * (1502 - len(coeffs))), ("cut", coeffs[:13])):
        (tmp_path / name).mkdir()
        path = str(corpus_copy(tmp_path / name, {17: {"reference_series": {"coeffs": kept, "provenance": "regression"}}}))
        start = time.perf_counter()
        text = run("verify", "--entry", "17", "--terms", "12", "--corpus", path)
        seconds = time.perf_counter() - start
        outputs.append((text, run("verify", "--entry", "17", "--terms", "12", "--corpus", path, "--format", "json")))
        assert text[0] == 1 and "  reference: MISMATCH at t^2: 0 != -25" in text[1].splitlines()
        assert seconds < 1.0, (name, seconds)
    assert outputs[0] == outputs[1]


def corpus_copy(tmp_path: Path, changes: dict[int, dict]) -> Path:
    """The bundled corpus with the fields in changes[id] replaced, written
    under tmp_path."""
    import importlib.resources as res

    with (res.files("weaklg") / "data" / "corpus.json").open() as fh:
        doc = json.load(fh)
    for e in doc["entries"]:
        e.update(changes.get(e["id"], {}))
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(doc))
    return path


def test_verify_counts_the_semiweak_verdict(tmp_path: Path) -> None:
    # entry 2's dual polytope has normalized volume 4; a corpus that claims
    # degree 6 fails only the semiweak check.  x+y+z spans a triangle.
    bad = str(corpus_copy(tmp_path, {2: {"degree": 6}, 3: {"polynomial": "x+y+z"}}))
    for entry, line in ((2, "semiweak: no (dual volume 4 vs degree 6)"),
                        (3, "semiweak: no (newton polytope is not full-dimensional)"),
                        (17, "semiweak: yes (dual volume 64 vs degree 64)")):
        passed = entry == 17
        code, out, _ = run("verify", "--entry", str(entry), "--terms", "6", "--corpus", bad)
        assert code == (0 if passed else 1)
        assert "  " + line in out.splitlines()
        assert f"  passed: {passed}" in out.splitlines()
        code, out, _ = run("verify", "--entry", str(entry), "--terms", "6", "--corpus", bad, "--format", "json")
        assert code == (0 if passed else 1) and json.loads(out)["passed"] is passed
        # lg semiweak prints lg verify's line
        assert run("semiweak", "--entry", str(entry), "--corpus", bad) == (0 if passed else 1, line + "\n", "")
    code, _, _ = run("verify-all", "--terms", "6", "--corpus", bad)
    assert code == 1


def test_semiweak_reads_and_converts_its_corpus_once(tmp_path: Path) -> None:
    # lg verify's counts: the entry gives both the polynomial and the degree
    path = str(corpus_copy(tmp_path, {}))
    for command in ("semiweak", "verify"):
        with unittest.mock.patch("weaklg.corpus._parse_corpus", wraps=weaklg.corpus._parse_corpus) as parse, \
                unittest.mock.patch("weaklg.expr.to_laurent", wraps=weaklg.expr.to_laurent) as convert:
            code, _, _ = run(command, "--entry", "5", "--corpus", path)
        assert (code, parse.call_count, convert.call_count) == (0, 1, 18)


def test_verify_json_reports_structure() -> None:
    code, out, _ = run("verify", "--entry", "13", "--terms", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["ci"]["matched"] is True
    assert doc["semiweak"]["ok"] is True


def test_json_output_is_byte_deterministic() -> None:
    a = run("verify", "--entry", "11", "--terms", "8", "--format", "json")
    b = run("verify", "--entry", "11", "--terms", "8", "--format", "json")
    assert a == b


def test_polytope_dual_volume() -> None:
    code, out, _ = run("polytope", "--entry", "17", "--dual", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["normalized_volume"] == "64"
    assert doc["origin_interior"] is True
    assert ["-1", "-1", "-1"] in doc["vertices"]


def test_semiweak_exit_codes() -> None:
    assert run("semiweak", "--entry", "17")[0] == 0
    assert run("semiweak", "--entry", "17", "--target", "54")[0] == 1
    assert run("semiweak", "--poly", "x+y+1/(x*y)", "--target", "99")[0] == 1
    code, out, err = run("semiweak", "--entry", "3", "--poly", "x+y")
    assert code == 2 and out == "" and "give either --entry or --poly, not both" in err
    assert run("semiweak") == (2, "", "error: one of --entry or --poly is required\n")
    assert run("semiweak", "--poly", "x+1/x") == (2, "", "error: --target is required with --poly\n")
    assert run("semiweak", "--poly", "x+y+z+x*y*z", "--target", "1") == (
        1, "semiweak: no (origin is not interior to the newton polytope)\n", "")


def test_ehrhart_counts_and_interpolation() -> None:
    code, out, _ = run(
        "ehrhart", "--entry", "17", "--dual", "--kmax", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == ["1", "35", "165", "455"]
    assert doc["polynomial"][-1] == "32/3"
    assert run("ehrhart", "--entry", "17", "--dual", "--kmax", "3")[1].splitlines()[-1] == (
        "polynomial coefficients (ascending): 1, 22/3, 16, 32/3")


@pytest.mark.parametrize("source, counts, period", [
    # ROADMAP item 13's control: the cubic through L(0..3) gives 273 at k = 4
    (("--poly", "1/(x*z)+z/x+y^2/(x*z)+y^2*z/x+x^2*z/y^2"), ["1", "11", "49", "131", "277"], 2),
    (("--entry", "1"), ["1", "4", "10", "21", "39"], 3),
])
def test_ehrhart_of_a_rational_polytope_gives_a_period_and_no_polynomial(source, counts, period) -> None:
    code, out, err = run("ehrhart", *source, "--dual", "--kmax", "4", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"counts": counts, "period": period}
    code, out, _ = run("ehrhart", *source, "--dual", "--kmax", "4")
    assert code == 0
    assert out.splitlines() == [*(f"L({k}) = {c}" for k, c in enumerate(counts)),
                                f"period {period} (lcm of the vertex denominators): the counts are a quasi-polynomial"]


def test_ehrhart_total_budget_refuses_huge_kmax_up_front() -> None:
    start = time.perf_counter()
    code, out, err = run("ehrhart", "--entry", "17", "--dual", "--kmax", "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "in total" in err and "budget of 100000000" in err


def test_hull_face_budget_refuses_high_dimensional_moment_curve() -> None:
    # 30 points on the moment curve (t, t^2, ..., t^8): a cyclic polytope,
    # whose facet count grows like N^4 in 8 dimensions
    names = [f"x{i}" for i in range(1, 9)]
    poly = " + ".join("*".join(f"{v}^{t ** (i + 1)}" for i, v in enumerate(names)) for t in range(1, 31))
    start = time.perf_counter()
    code, out, err = run("polytope", "--poly", poly)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "5000 boundary faces" in err


def test_largest_admitted_three_variable_hull() -> None:
    # (x+y+z+1)^37 has 9,880 terms, the highest power MAX_POWER_TERMS admits
    start = time.perf_counter()
    code, out, err = run("polytope", "--poly", "(x+y+z+1)^37*x^-9*y^-9*z^-9", "--dual", "--format", "json")
    assert time.perf_counter() - start < 10.0
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert len(doc["vertices"]) == 4 and len(doc["facets"]) == 4
    assert doc["normalized_volume"] == "37/7290"


BUDGET_CASES = [
    (("series", "--poly", "(x+y+z+1)^100000"), "10000 terms (the limit MAX_POWER_TERMS)", 1.0),
    (("series", "--entry", "17", "--terms", "100000"), "100000000 term products (the limit MAX_SERIES_WORK)", 1.0),
    # few term products, but 10^8 power steps and 2*10^8 coefficients
    (("series", "--poly", "x", "--terms", "200000000"), "100000000 term products (the limit MAX_SERIES_WORK)", 1.0),
    (("series", "--poly", "0", "--terms", "200000000"), "100000000 term products (the limit MAX_SERIES_WORK)", 1.0),
    # each power is allowed, and the one subexpression is built once;
    # their product is refused before it is formed
    (("series", "--poly", "(x+y+z+1)^37*(x+y+z+1)^37", "--terms", "1"),
     "1000000 term products (the limit MAX_TERM_PRODUCTS)", 1.0),
    # 10,000 terms at most, but about 10^8 term products to build them
    (("series", "--poly", "(x+1)^9999", "--terms", "1"),
     "1000000 term products (the limit MAX_TERM_PRODUCTS)", 1.0),
    # few term products, but 3^10000 has 4772 digits
    (("series", "--poly", "3", "--terms", "10000"), "digits (the limit sys.get_int_max_str_digits()", 1.0),
    # solving the model's constraint for w multiplies its two 1771-term powers
    (("eliminate", "--plan", "0:w"), "1000000 term products (the limit MAX_TERM_PRODUCTS)", 1.0),
    # (x1+...+x11+1)^12 has C(23, 11) terms; this once printed 84 MB in 17.6 s
    (("construct", "ci", "--n", "12", "--degrees", "12"), "10000 terms (the limit MAX_POWER_TERMS)", 1.0),
    # chains of products, once admitted and run for 1.4-7.7 s: their last
    # product, 177147 by 3 terms, now counts (n + 8)/11 times in n variables
    (("series", "--poly", "*".join(f"(a{i}+b{i}+1)" for i in range(12)), "--terms", "1"),
     "1000000 term products (the limit MAX_TERM_PRODUCTS)", 1.0),
    (("series", "--poly", "*".join(f"(a{i}+1)^2" for i in range(13)), "--terms", "1"),
     "1000000 term products (the limit MAX_TERM_PRODUCTS)", 1.0),
    (("construct", "ci", "--n", "30", "--degrees", ",".join(["2"] * 12)),
     "1000000 term products (the limit MAX_TERM_PRODUCTS)", 1.0),
    # 4,000 quotients of 4,000-entry monomials, once 4.6 s: each term of
    # a quotient is charged as a term product, and about 2,700 of them
    # fill the budget at 4,000 variables, 0.7-1.0 s in all
    (("series", "--poly", "+".join(f"x{i}/x{i % 4000 + 1}" for i in range(1, 4001)), "--terms", "2"),
     "1000000 term products (the limit MAX_TERM_PRODUCTS)", 2.0),
    # 1.92*10^6 point-steps, but 80,004 steps in each of two batches: once
    # 3.3 s of evaluation, now refused after about 0.8 s of parsing and compiling
    (("identity", "--left", "1/(x-x)" + "/x" * 80000, "--right", "x", "--trials", "1"),
     "(the limit MAX_IDENTITY_WORK)", 2.0),
    # a corpus whose entry 1 has a coefficient of 10^400: few term products,
    # but |phi(60)| may reach about 10^24000; this once ran 20 s in the kernel
    # and then failed to print
    *((("verify", "--entry", "1", "--terms", "60", *fmt), "digits (the limit sys.get_int_max_str_digits()", 1.0)
      for fmt in ((), ("--format", "json"))),
    *((("verify-all", "--terms", "30", *fmt), "digits (the limit sys.get_int_max_str_digits()", 1.0)
      for fmt in ((), ("--format", "json"))),
]


# the ids leave out the time bound, so a case keeps its name when its bound changes
@pytest.mark.parametrize(
    ("argv", "limit", "seconds"),
    BUDGET_CASES,
    ids=[f"argv{i}-{limit}" for i, (_, limit, _) in enumerate(BUDGET_CASES)],
)
def test_series_budgets_refuse_up_front(tmp_path: Path, argv: tuple[str, ...], limit: str, seconds: float) -> None:
    if argv[0] == "eliminate":
        model_file = tmp_path / "wide.json"
        model_file.write_text(
            '{"variables": ["x", "y", "z", "w"], "constraints": ["w*(x+y+z+1)^20*(x+y+z+1)^20"],'
            ' "potential": "x+y+z+w"}'
        )
        argv = (*argv, "--model", str(model_file))
    if argv[0] in ("verify", "verify-all"):
        argv = (*argv, "--corpus", str(corpus_copy(tmp_path, {1: {"polynomial": "10^400*x+1/x+y+z+1/(y*z)"}})))
    start = time.perf_counter()
    code, out, err = run(*argv)
    assert time.perf_counter() - start < seconds
    assert code == 2 and out == ""
    assert limit in err


def test_series_just_inside_the_digit_limit_prints() -> None:
    # 3^9000 has 4295 digits, under the default limit of 4300
    code, out, err = run("series", "--poly", "3", "--terms", "9000")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == f"phi(9000) = {3**9000}"


def test_one_term_power_is_raised_directly() -> None:
    start = time.perf_counter()
    code, out, err = run("series", "--poly", "x^100000000", "--terms", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert out.splitlines() == ["phi(0) = 1", "phi(1) = 0"]


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "--poly", "(" * 5000 + "x" + ")" * 5000),
        ("identity", "--left", "(" * 3000 + "x" + ")" * 3000, "--right", "x"),
        ("series", "--poly=" + "-" * 5000 + "x"),
    ],
)
def test_deeply_nested_input_exits_two(argv: tuple[str, ...]) -> None:
    code, out, err = run(*argv)
    assert code == 2 and out == ""
    assert "nested too deeply" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "--poly", "-".join(["x"] * 5000), "--terms", "4"),
        ("identity", "--left", "-".join(["x"] * 5000), "--right=-4998*x"),
        ("identity", "--left", "/".join(["x"] * 5000), "--right", "x"),
    ],
)
def test_long_left_nested_chains_run_without_recursion(argv: tuple[str, ...]) -> None:
    # the parser builds a-b-c-... and a/b/c/... as chains 5000 levels deep
    start = time.perf_counter()
    code, out, err = run(*argv)
    assert time.perf_counter() - start < 1.0
    assert code in (0, 1) and err == ""
    assert out


def test_pfop_finds_operator_at_given_bidegree() -> None:
    code, out, _ = run(
        "pfop", "--entry", "17", "--order", "3", "--degree", "4",
        "--terms", "30", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 3 and doc["degree"] == 4
    assert len(doc["operators"]) == 1
    assert [0, 3, "1"] in doc["operators"][0]["coeffs"]
    # t^0, t^4, ..., t^24 are 7 equations for the 8 unknowns of t^0 and t^4: not solved
    cell = ("pfop", "--entry", "17", "--order", "3", "--degree", "4", "--terms", "24")
    assert run(*cell) == (1, (
        "truncation t^24, tightest class 0 mod 4: 7 equations for 8 unknowns, slack -1;"
        " not solved, --terms 28 determines the cell\n"
    ), "")
    assert run(*cell, "--format", "json") == (1, '{\n  "degree": 4,\n  "operators": [],\n  "order": 3\n}\n', "")


OPERATOR_17 = "D^3 - 256*t^4*D^3 - 1536*t^4*D^2 - 2816*t^4*D - 1536*t^4"


def test_pfop_sweep_reports_minimal_bidegree() -> None:
    code, out, _ = run("pfop", "--entry", "17", "--terms", "30", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["order"], doc["degree"]) == (3, 4)
    assert run("pfop", "--entry", "17", "--terms", "30") == (0, (
        "minimal bounds: order 3, degree 4\n"
        "truncation t^30, tightest class 0 mod 4: 8 equations for 8 unknowns, slack 0\n"
        f"{OPERATOR_17}\n"
    ), "")
    assert run("pfop", "--entry", "17", "--terms", "40") == (0, (
        "minimal bounds: order 3, degree 4\n"
        "truncation t^40, tightest class 0 mod 4: 11 equations for 8 unknowns, slack 3\n"
        f"{OPERATOR_17}\n"
    ), "")


def test_pfop_reports_no_operator_its_truncation_does_not_determine() -> None:
    # at the default t^20 the order-2 operator of entry 17 that an unchecked
    # sweep finds is wrong: class 1 of (2, 5) has 6 unknowns (t and t^5 times
    # D^0..D^2) and 5 rows, so the cell is skipped, as (3, 4) is; class 0 of
    # (4, 6) has 10 unknowns (t^0 and t^4 times D^0..D^4), the rows 0, 4, ..., 36
    assert run("pfop", "--entry", "17") == (1, (
        "no annihilator found in the sweep\n"
        "--terms 38 determines every cell of the sweep\n"
    ), "")
    assert run("pfop", "--entry", "17", "--format", "json") == (1, '{\n  "operators": []\n}\n', "")


NOTHING_PAST_T0 = "the truncation shows no coefficient past t^0"


@pytest.mark.parametrize("argv", [
    *(("--entry", str(i), "--terms", str(get_entry(i).fano_index - 1)) for i in range(11, 18)),
    ("--poly", "x+1/x", "--terms", "1"), ("--poly", "0"), ("--poly", "x"),
])
def test_pfop_reports_no_operator_from_a_truncation_with_nothing_past_t0(argv: tuple[str, ...]) -> None:
    # the series reads 1, 0, ..., 0, so every column t^l D^j, j >= 1, is zero:
    # D kills the truncation of any series whose next coefficient lies beyond it
    assert run("pfop", *argv) == (1, f"no annihilator found in the sweep\n{NOTHING_PAST_T0}\n", "")
    assert run("pfop", *argv, "--format", "json") == (1, '{\n  "operators": []\n}\n', "")


def test_pfop_cell_from_a_truncation_with_nothing_past_t0() -> None:
    # the count alone passes with slack 2, since 1, 0, 0, 0 is graded by 1
    cell = ("pfop", "--entry", "17", "--order", "1", "--degree", "0")
    assert run(*cell, "--terms", "3") == (1, (
        "truncation t^3, tightest class 0 mod 1: 4 equations for 2 unknowns, slack 2;"
        f" not solved, {NOTHING_PAST_T0}\n"
    ), "")
    assert run(*cell, "--terms", "3", "--format", "json") == (
        1, '{\n  "degree": 0,\n  "operators": [],\n  "order": 1\n}\n', "")
    # t^4 shows s_4 = 24, and D no longer kills the series
    assert run(*cell, "--terms", "4") == (1, (
        "truncation t^4, tightest class 0 mod 4: 2 equations for 2 unknowns, slack 0\n"
        "no annihilator at these bounds\n"
    ), "")


# the truncation that determines every cell of the sweep, and the cell the
# sweep finds there (None: no operator in the box)
SETTLED = {
    ("--entry", "15"): (38, (3, 4)),
    ("--entry", "16"): (42, (3, 3)),
    ("--entry", "17"): (38, (3, 4)),
    ("--poly", "x+y+z+1/(x*y)+1/(y*z)+x*z/y+2*y"): (42, None),
    ("--poly", "x+y+z+1/x+1/y+1/z"): (38, (3, 4)),
    ("--poly", "x+2*y+3*z+1/(x*y)+5/(y*z)+x*z/y+7*y/x"): (34, None),
    ("--poly", "2*x+y^2/z+3*z+1/(x*y)+x/(y*z)+5/x"): (34, None),
    ("--poly", "3*x+5*y+z+7/(x*y)+2/(y*z)+x*z/y+11*y/z+x/y"): (34, None),
}


@pytest.mark.parametrize("source", SETTLED)
@pytest.mark.parametrize("terms", [12, 20])
def test_pfop_names_the_one_truncation_that_settles_the_sweep(source: tuple[str, str], terms: int) -> None:
    settled, cell = SETTLED[source]
    assert run("pfop", *source, "--terms", str(terms)) == (1, (
        "no annihilator found in the sweep\n"
        f"--terms {settled} determines every cell of the sweep\n"
    ), "")
    s = constant_term_series(cli._input_polynomial(cli.build_parser("pfop").parse_args(["pfop", *source])), settled)
    assert determined(s, MAX_ORDER, MAX_DEGREE)
    code, out, err = run("pfop", *source, "--terms", str(settled))
    if cell is None:
        assert (code, out, err) == (1, "no annihilator found in the sweep\n", "")
    else:
        assert code == 0 and err == "" and out.startswith(f"minimal bounds: order {cell[0]}, degree {cell[1]}\n")


@pytest.mark.parametrize("text", ["x+y+z+1/(x*y)+1/(y*z)+x*z/y+2*y", "3*x+5*y+z+7/(x*y)+2/(y*z)+x*z/y+11*y/z+x/y"])
@pytest.mark.parametrize("terms", [12, 20, 24, 30, 36, 40])
def test_pfop_finds_no_operator_for_the_controls(text: str, terms: int) -> None:
    # an unchecked sweep found an operator of each of these at some of these terms
    code, out, _ = run("pfop", "--poly", text, "--terms", str(terms))
    assert code == 1 and out.startswith("no annihilator found in the sweep\n")


@pytest.mark.parametrize("argv", [
    ("--poly", "x+y+1/(x*y)", "--terms", "800"),
    ("--entry", "17", "--terms", "30", "--order", "40", "--degree", "40"),
])
def test_pfop_refuses_a_sweep_past_its_budget(argv: tuple[str, ...]) -> None:
    # x + y + 1/(x*y) to t^800 took about 9 s before the sweep had a budget
    start = time.perf_counter()
    code, out, err = run("pfop", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "(the limit MAX_SWEEP_WORK)" in err


def test_pfop_charges_one_cell_only_its_own_solve() -> None:
    # the sweep of orders 0..4 at t-degree 6 would be charged 2.6e8 here, the cell 1.7e8
    code, out, _ = run("pfop", "--poly", "x+y+1/(x*y)", "--terms", "120", "--order", "4", "--degree", "6")
    assert code == 0
    assert out.splitlines()[:2] == [
        "truncation t^120, tightest class 0 mod 3: 41 equations for 15 unknowns, slack 26",
        "D^2 - 27*t^3*D^2 - 81*t^3*D - 54*t^3",
    ]


def test_pfop_exits_one_when_nothing_found() -> None:
    code, _, _ = run(
        "pfop", "--entry", "17", "--order", "1", "--degree", "1", "--terms", "12"
    )
    assert code == 1
    sweep = ("pfop", "--poly", "x+y+z+1/(x*y)+1/(y*z)+x*z/y+2*y", "--terms", "48")
    assert run(*sweep) == (1, "no annihilator found in the sweep\n", "")
    assert run(*sweep, "--format", "json") == (1, '{\n  "operators": []\n}\n', "")


def test_construct_toric() -> None:
    code, out, _ = run(
        "construct", "toric", "--rays", "1,0,0;0,1,0;0,0,1;-1,-1,-1"
    )
    assert code == 0
    assert out.strip() == "x + y + z + x^-1*y^-1*z^-1"
    # an empty chunk between semicolons is skipped
    assert run("construct", "toric", "--rays", "1,0;;0,1;-1,-1") == (0, "x + y + x^-1*y^-1\n", "")


def test_construct_ci_and_grassmannian() -> None:
    code, out, _ = run("construct", "ci", "--n", "4", "--degrees", "3")
    assert code == 0 and "x11" in out
    code, out, _ = run("construct", "grassmannian", "--k", "2", "--n", "6")
    assert code == 0 and "X42" in out


def test_construct_ci_checks_its_data_once() -> None:
    polynomial = (
        "x11*x21*y1^-1 + 2*x11*y1^-1 + x11*x21^-1*y1^-1 + 2*x21*y1^-1 + y1 + 4*y1^-1"
        " + 2*x21^-1*y1^-1 + x11^-1*x21*y1^-1 + 2*x11^-1*y1^-1 + x11^-1*x21^-1*y1^-1"
    )
    check = weaklg.constructors._check_ci_data
    with unittest.mock.patch("weaklg.constructors._check_ci_data", wraps=check) as checked:
        assert run("construct", "ci", "--n", "5", "--degrees", "2,2") == (0, polynomial + "\n", "")
    assert checked.call_count == 1
    code, out, _ = run("construct", "ci", "--n", "5", "--degrees", "2,2", "--format", "json")
    assert (code, json.loads(out)) == (0, {"polynomial": polynomial, "variables": ["x11", "x21", "y1"]})


@pytest.mark.parametrize("command", [("grassmannian",), ("grass-ci", "--sections", "2")])
def test_grassmannian_grid_names_stay_distinct(command: tuple[str, ...]) -> None:
    # with k and N - k both 11 or more, X{a}{b} names X111 twice; that was
    # refused as "variable_order contains duplicates"
    code, out, err = run("construct", *command, "--k", "10", "--n", "21")
    assert code == 0 and err == "" and "X1110" in out
    code, out, err = run("construct", *command, "--k", "11", "--n", "22")
    assert code == 2 and out == ""
    assert "collide when k and N - k are both at least 11" in err


def test_construct_weighted_model_json() -> None:
    code, out, _ = run(
        "construct", "weighted", "--weights", "1,1,1,1,3", "--d", "6",
        "--partition", "1,1,1,3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["variables"] == ["y0", "y1", "y2", "y3", "y4"]
    assert len(doc["constraints"]) == 2


def test_eliminate_round_trip_through_model_file(tmp_path: Path) -> None:
    code, out, _ = run(
        "construct", "grass-ci", "--k", "2", "--n", "6", "--sections", "5",
        "--format", "json",
    )
    assert code == 0
    model_file = tmp_path / "model.json"
    model_file.write_text(out)
    code, out, _ = run(
        "eliminate", "--model", str(model_file),
        "--plan", "0:X11;4:X42;1:X21;2:X31;3:X41",
        "--subs", "X12=x+y+z+1;X22=y+z+1;X32=z+1",
    )
    assert code == 0
    expression = out.strip().splitlines()[-1]
    code, _, _ = run(
        "identity", "--left", expression,
        "--right", "5 + (x+y+z+1)^2/x + (x+y+z+1)*(y+z+1)*(z+1)^2/(x*y*z)",
    )
    assert code == 0


def test_eliminate_rejects_a_file_that_is_not_a_model(tmp_path: Path) -> None:
    code, out, _ = run("construct", "ci", "--n", "4", "--degrees", "4", "--format", "json")
    assert code == 0
    not_a_model = tmp_path / "ci.json"
    not_a_model.write_text(out)
    code, out, err = run("eliminate", "--model", str(not_a_model), "--plan", "0:x11")
    assert code == 2 and out == ""
    assert "'constraints'" in err and "Traceback" not in err
    for bad in ("[1]", '{"variables": "x", "constraints": [], "potential": "x"}',
                '{"variables": ["x", "y"], "constraints": [1], "potential": "x"}',
                '{"variables": ["x", "y"], "constraints": []}'):
        not_a_model.write_text(bad)
        assert run("eliminate", "--model", str(not_a_model), "--plan", "0:x")[0] == 2


def test_identity_disagreement_exits_one_with_witness() -> None:
    code, out, _ = run(
        "identity", "--left", "x+y", "--right", "x-y", "--format", "json"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["equal"] is False
    assert set(doc["witness"]) == {"x", "y"}


def test_identity_agreement_is_seed_stable() -> None:
    a = run("identity", "--left", "(x+y)^2", "--right", "x^2+2*x*y+y^2",
            "--seed", "9", "--format", "json")
    b = run("identity", "--left", "(x+y)^2", "--right", "x^2+2*x*y+y^2",
            "--seed", "9", "--format", "json")
    assert a == b and a[0] == 0


def test_error_paths_exit_two(tmp_path: Path) -> None:
    code, _, err = run("series", "--poly", "x+(")
    assert code == 2 and err.startswith("error:")
    code, _, err = run("verify", "--entry", "99")
    assert code == 2 and "no entry 99" in err
    assert run("verify", "--terms", "8") == (2, "", "error: --entry is required\n")
    code, _, err = run("series", "--entry", "17", "--corpus", "/nonexistent.json")
    assert code == 2
    code, _, err = run("construct", "toric", "--rays", "1,0;1,0")
    assert code == 2
    code, _, err = run("construct", "ci", "--n", "0", "--degrees", "")
    assert code == 2 and err == "error: ambient dimension must be >= 1\n"
    assert run("construct", "ci", "--n", "32", "--degrees", "12" + ",2" * 10) == (
        2, "", "error: the names x{i}{j} collide: x111 would be both x_{1,11} and x_{11,1}\n")
    # refused before the series, which takes about 2 s
    start = time.perf_counter()
    assert run("pfop", "--entry", "1", "--order", "-1", "--degree", "2", "--terms", "36") == (
        2, "", "error: order and degree must be >= 0\n")
    assert time.perf_counter() - start < 1.0
    assert run("series", "--poly", "") == (2, "", "error: unexpected end of input (offset 0)\n")
    assert run("series", "--entry", "5", "--poly", "") == (2, "", "error: give either --entry or --poly, not both\n")
    assert run("pfop", "--entry", "17", "--order", "3") == (
        2, "", "error: --order and --degree must be given together\n")
    # usage is checked before the polynomial is parsed
    assert run("pfop", "--poly", "x+", "--order", "1") == (
        2, "", "error: --order and --degree must be given together\n")
    assert run("semiweak", "--poly", "x+") == (2, "", "error: --target is required with --poly\n")
    assert run("series", "--poly", "x/(2*y)") == (
        2, "", "error: coefficient 1 is not divisible by 2 in quotient by 2*y\n")
    assert run("series", "--poly", "(2*x)^-1") == (
        2, "", "error: negative power of monomial with non-unit coefficient 2: 2*x\n")
    corpus = tmp_path / "corpus.json"
    for text, message in (('{"entries": [1]}', "entry at position 0 is not an object"),
                          ("{", "corpus is not valid JSON: Expecting property name enclosed in double quotes"),
                          ("{}", "corpus must be an object with an 'entries' list")):
        corpus.write_text(text)
        code, out, err = run("series", "--entry", "1", "--corpus", str(corpus))
        assert (code, out) == (2, "") and err.startswith(f"error: {message}"), err
    assert run("construct", "toric", "--rays", "1,a") == (
        2, "", "error: each ray must be a comma-separated integer list, got '1,a'\n")
    assert run("construct", "toric", "--rays", ";") == (
        2, "", "error: --rays must list at least one ray, e.g. '1,0;0,1;-1,-1'\n")
    model = str(grass_ci_model(tmp_path))
    assert run("eliminate", "--model", model, "--plan", ";") == (
        2, "", "error: --plan must list at least one step, e.g. '0:X11;4:X42'\n")
    assert run("eliminate", "--model", model, "--plan", "0:X11", "--subs", "y1") == (
        2, "", "error: substitution 'y1' must look like NAME=EXPRESSION\n")


def test_argparse_usage_errors_exit_two() -> None:
    with pytest.raises(SystemExit) as exc:
        main(["construct", "ci", "--degrees", "3"])  # missing required --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["series", "--no-such-flag"])
    assert exc.value.code == 2


def test_one_parser_serves_every_call_of_a_process() -> None:
    calls = [
        ("pfop", "--entry", "17", "--no-such-flag"),
        ("pfop", "--entry", "17", "--terms", "30"),
        ("pfop", "--entry", "17", "--terms", "30"),
        ("verify", "--entry", "17", "--terms", "12", "--format", "json"),
    ]

    def outcomes() -> list[tuple[int, str, str]]:
        seen = []
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(argv))
                except SystemExit as usage:
                    code = usage.code
            seen.append((code, out.getvalue(), err.getvalue()))
        return seen

    cli._parser.cache_clear()
    shared = outcomes()
    # one parser per command, each built with that command's parser only
    assert cli._parser.cache_info()[:2] == (2, 2)  # hits, misses
    # a freshly built whole parser for every call, as before the parser was kept
    with unittest.mock.patch.object(cli, "_parser", lambda command: cli.build_parser()):
        fresh = outcomes()
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 0]
    assert "unrecognized arguments: --no-such-flag" in shared[0][2]
    assert shared[1] == shared[2] and shared[1][1]


COMMANDS = ["list", "series", "verify", "verify-all", "polytope", "semiweak", "ehrhart", "pfop", "construct",
            "eliminate", "identity"]
RECIPES = ["toric", "ci", "grassmannian", "grass-ci", "weighted"]


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["nosuch"], ["--bogus", "pfop"], ["--", "pfop", "--entry", "17", "--bogus"], ["-1", "pfop"],
    ["pfop", "--entry", "17", "--no-such-flag"], ["construct", "nosuch"], ["construct", "ci", "--n", "x"],
    *([command, flag] for command in COMMANDS for flag in ("--help", "--bogus")),
    *(["construct", recipe, flag] for recipe in RECIPES for flag in ("--help", "--bogus")),
])
def test_a_parser_built_for_one_command_prints_what_the_whole_parser_prints(argv: list[str]) -> None:
    # help, usage and errors, the top-level ones included, which list
    # every command
    def outcome() -> tuple[object, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as usage:
            main(argv)
        return usage.value.code, out.getvalue(), err.getvalue()

    own = outcome()
    with unittest.mock.patch.object(cli, "_parser", lambda command: cli.build_parser()):
        assert own == outcome()


def child_env() -> dict[str, str]:
    """The environment of a child that imports the same weaklg as this
    test, installed or not."""
    package_root = str(Path(weaklg.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}


def test_console_entry_point_runs() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "weaklg", "series", "--poly", "x+1/x", "--terms", "2"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "phi(2) = 2" in proc.stdout


def test_a_closed_stdout_exits_141_quietly() -> None:
    # the 280 KB of output overfill the pipe, so the child is still writing
    # when the reader closes it, however the two are scheduled
    proc = subprocess.Popen(
        [sys.executable, "-m", "weaklg", "series", "--poly", "x", "--terms", "20000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert proc.stdout.readline() == b"phi(0) = 1\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


def grass_ci_model(tmp_path: Path) -> Path:
    code, out, _ = run("construct", "grass-ci", "--k", "2", "--n", "6", "--sections", "5", "--format", "json")
    assert code == 0
    model_file = tmp_path / "model.json"
    model_file.write_text(out)
    return model_file


def test_eliminate_with_a_5000_term_substitution_runs_without_recursion(tmp_path: Path) -> None:
    model_file = grass_ci_model(tmp_path)
    start = time.perf_counter()
    code, out, err = run("eliminate", "--model", str(model_file), "--plan", "0:X11;4:X42",
                         "--subs", "X12=" + "-".join(["x"] * 5000))
    assert time.perf_counter() - start < 1.0
    assert code in (0, 1) and err == ""
    assert " - ".join(["x"] * 5000) in out


def test_eliminate_refuses_an_identically_zero_denominator(tmp_path: Path) -> None:
    model_file = tmp_path / "zero.json"
    model_file.write_text('{"variables": ["a", "b"], "constraints": ["a/(b-b)"], "potential": "a+b"}')
    code, out, err = run("eliminate", "--model", str(model_file), "--plan", "0:a")
    assert (code, out, err) == (2, "", "error: denominator b - b is identically zero\n")


@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        (("series", "--poly", "3^20000000", "--terms", "2"), 2),
        (("series", "--poly", "(2^99999)^99999"), 2),
        (("eliminate", "--plan", "0:b", "--subs", "a=7"), 0),
    ],
)
def test_constant_powers_are_bounded_by_the_digit_limit(tmp_path: Path, argv: tuple[str, ...], expected: int) -> None:
    if argv[0] == "eliminate":
        model_file = tmp_path / "big.json"
        model_file.write_text('{"variables": ["a", "b"], "constraints": ["b"], "potential": "a^30000000 + b"}')
        argv = (*argv, "--model", str(model_file))
    if argv[0] in ("verify", "verify-all"):
        argv = (*argv, "--corpus", str(corpus_copy(tmp_path, {1: {"polynomial": "10^400*x+1/x+y+z+1/(y*z)"}})))
    start = time.perf_counter()
    code, out, err = run(*argv)
    assert time.perf_counter() - start < 1.0
    assert code == expected
    if expected == 2:
        assert "digits (the limit sys.get_int_max_str_digits()" in err
    else:
        # 7^30000000 is left unfolded
        assert out == "7^30000000 + 1\n" and err == ""


@pytest.mark.parametrize(("poly", "message"), [("x^²", "expected an integer (offset 2)"),
                                               ("2²", "unexpected character '²' (offset 1)")])
def test_digits_int_cannot_read_exit_two(poly: str, message: str) -> None:
    code, out, err = run("series", "--poly", poly)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_20000_term_sums_parse_and_are_refused_in_time() -> None:
    # x+x+...+x, 40 KB: parsing it once rebuilt the sum for every term
    chain = "+".join(["x"] * 20000)
    start = time.perf_counter()
    code, out, err = run("series", "--poly", chain, "--terms", "2")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == "" and out.splitlines() == ["phi(0) = 1", "phi(1) = 0", "phi(2) = 0"]
    start = time.perf_counter()
    code, out, err = run("identity", "--left", chain, "--right", "20000*x")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "(the limit MAX_IDENTITY_WORK)" in err


def test_identity_budget_bounds_trials_by_program_size() -> None:
    # 200,000 trials of x+y+z against z+y+x once held 101 MB of points
    start = time.perf_counter()
    code, out, err = run("identity", "--left", "x+y+z", "--right", "z+y+x", "--trials", "200000")
    assert code == 2 and out == "" and "(the limit MAX_IDENTITY_WORK)" in err
    chain = "+".join(["x"] * 5000)
    code, out, err = run("identity", "--left", chain, "--right", "5000*x", "--trials", "1000")
    assert code == 2 and "(the limit MAX_IDENTITY_WORK)" in err
    code, out, _ = run("identity", "--left", chain, "--right", "5000*x", "--trials", "20")
    assert code == 0 and out == "equal: True (20 trials)\n"
    assert time.perf_counter() - start < 1.0


def test_series_budget_counts_the_variables() -> None:
    # x1*x2^2 + x2*x3^2 + ... + x4000*x1^2: 4,000 terms and a bound of
    # 4,032 term products at T = 2 before keys were charged by their size,
    # but 4,000 decodes of 4,000-digit keys, and the call took about 16 s.
    # Refused later by MAX_SERIES_WORK, it took 2.5-4 s, nearly all in
    # to_laurent building 4,000 exponent tuples of 4,000 entries.  Each
    # term product there now counts (4000 + 8)/11 times, so to_laurent
    # stops about a third of the way through, some 0.7 s in.
    n = 4000
    poly = "+".join(f"x{i}*x{i % n + 1}^2" for i in range(1, n + 1))
    start = time.perf_counter()
    code, out, err = run("series", "--poly", poly, "--terms", "2")
    assert time.perf_counter() - start < 10.0
    assert code == 2 and out == ""
    assert "(the limit MAX_TERM_PRODUCTS)" in err


# A small grammar of hostile inputs.  Every polynomial it draws is tiny or
# refused by a budget, and every series --terms above 41 that it draws is past
# the budgets, so each call ends within the wall bound below: those budgets
# admit work of up to some tens of seconds, which a fuzz test cannot afford
# per example.  series --terms also draws the admitted 13, 30 and 41, which
# take milliseconds on these polynomials.  ehrhart --kmax draws 40, 100 and
# 400 besides, with or without --dual: the budget admits some of them (x+1/x
# at 400, x+y+z+1/(x*y*z) --dual at 40), each within some 0.06 s, and refuses
# the rest.  pfop --terms and identity --trials range over sizes their budgets
# admit and refuse, since those budgets admit at most seconds.
EXPONENTS = st.sampled_from(["0", "1", "2", "-1", "-99999", "99999", "30000000", "1000000000000"])
CHAINS = st.builds(lambda op, n: op.join(["x"] * n), st.sampled_from("+-*/"), st.sampled_from([2, 99, 5000]))
NESTS = st.builds(lambda opener, depth: opener * depth + "x" + ")" * depth * (opener == "("),
                  st.sampled_from(["(", "-"]), st.integers(min_value=98, max_value=101))
POWERS = st.builds("{}^{}".format,
                   st.sampled_from(["3", "(2^99999)", "x", "(x*y)", "(2*x)", "(x+1)", "(x+y+z+1)", "(1/x)", "(x-x)"]),
                   EXPONENTS)
PLAIN = st.sampled_from(["x+1/x", "x+y+z+1/(x*y*z)", "1/(x-x)", "x/(x+1)", "0", "x^2*y^-1+3", "(x+1)^2/(x*y)"])
JUNK = st.text(alphabet="xy+-*/^()019 ", max_size=20)
POLYS = st.one_of(CHAINS, NESTS, POWERS, PLAIN, JUNK)
SIZES = st.sampled_from(["-1", "0", "1", "2", "12", "1000000000", "1000000000000"])
SERIES_TERMS = st.one_of(SIZES, st.sampled_from(["13", "30", "41"]))
KMAX = st.one_of(SIZES, st.sampled_from(["40", "100", "400"]))
DUAL = st.sampled_from([[], ["--dual"]])
SWEEP_TERMS = st.sampled_from(["-1", "0", "1", "8", "30", "60", "100", "800", "1000000000"])
TRIALS = st.sampled_from(["-1", "0", "1", "20", "100", "1000", "100000", "1000000000000"])
PLANS = st.sampled_from(["0:a", "0:b", "0:X11;4:X42", "", ":", "0:", "x:a", "-1:a", "99:a", "0:a;0:a", "0:a;1:a"])
SUBS = st.one_of(st.sampled_from(["a=7", "=", "a", "a=(", "1a=2", "b=a^-1"]), POLYS.map("a=".__add__))


@st.composite
def hostile_argv(draw) -> tuple[list[str], str | None]:
    """(argv, model file text or None); the model file goes last in argv."""
    command = draw(st.sampled_from(["series", "identity", "polytope", "ehrhart", "pfop", "eliminate"]))
    if command == "series":
        return ["series", "--poly", draw(POLYS), "--terms", draw(SERIES_TERMS)], None
    if command == "identity":
        return ["identity", "--left", draw(POLYS), "--right", draw(POLYS), "--trials", draw(TRIALS)], None
    if command == "polytope":
        return ["polytope", "--poly", draw(POLYS), *draw(DUAL)], None
    if command == "ehrhart":
        return ["ehrhart", "--poly", draw(POLYS), "--kmax", draw(KMAX), *draw(DUAL)], None
    if command == "pfop":
        return ["pfop", "--poly", draw(POLYS), "--terms", draw(SWEEP_TERMS)], None
    model = draw(st.one_of(
        st.just("grass-ci"),
        st.sampled_from(["", "[1]", "{", '{"variables": ["a"], "constraints": [], "potential": "a"}',
                         '{"variables": ["a", "a", "b"], "constraints": ["a"], "potential": "a"}']),
        st.builds(lambda c, p: json.dumps({"variables": ["a", "b", "x", "y", "z"], "constraints": [c], "potential": p}),
                  st.one_of(POLYS, st.sampled_from(["a/(b-b)", "(a+1)^99999*b", "a^30000000*b", "a*b^2", "b"])),
                  POLYS),
    ))
    argv = ["eliminate", "--plan", draw(PLANS)]
    if draw(st.booleans()):
        argv += ["--subs", draw(SUBS)]
    return argv + ["--model"], model


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hostile_argv())
def test_cli_fuzz_keeps_the_exit_code_contract(tmp_path: Path, case: tuple[list[str], str | None]) -> None:
    argv, model = case
    if model is not None:
        model_file = grass_ci_model(tmp_path) if model == "grass-ci" else tmp_path / "hostile.json"
        if model != "grass-ci":
            model_file.write_text(model)
        argv = [*argv, str(model_file)]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as usage:  # argparse refuses the command line
            code = usage.code
    assert time.perf_counter() - start < 2.0, argv
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
