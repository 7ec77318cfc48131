from __future__ import annotations

import io
import contextlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import weaklg
from weaklg.cli import main


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


def test_series_json_output_is_decimal_strings() -> None:
    code, out, _ = run("series", "--entry", "17", "--terms", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["series"] == ["1", "0", "0", "0", "24", "0", "0", "0", "2520"]
    assert doc["terms"] == 8


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
    assert "weighted" in by_id[1]["checks"]
    assert "alternates" in by_id[11]["checks"]


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
    code, _, _ = run("verify-all", "--terms", "6", "--corpus", str(bad))
    assert code == 1


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


def test_ehrhart_counts_and_interpolation() -> None:
    code, out, _ = run(
        "ehrhart", "--entry", "17", "--dual", "--kmax", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == ["1", "35", "165", "455"]
    assert doc["polynomial"][-1] == "32/3"


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


@pytest.mark.parametrize(
    ("argv", "limit"),
    [
        (("series", "--poly", "(x+y+z+1)^100000"), "10000 terms (the limit MAX_POWER_TERMS)"),
        (("series", "--entry", "17", "--terms", "100000"), "100000000 term products (the limit MAX_SERIES_WORK)"),
        # few term products, but 10^8 power steps and 2*10^8 coefficients
        (("series", "--poly", "x", "--terms", "200000000"), "100000000 term products (the limit MAX_SERIES_WORK)"),
        (("series", "--poly", "0", "--terms", "200000000"), "100000000 term products (the limit MAX_SERIES_WORK)"),
        # each power is allowed; their product is refused before either is expanded
        (("series", "--poly", "(x+y+z+1)^37*(x+y+z+1)^37", "--terms", "1"),
         "1000000 term products (the limit MAX_TERM_PRODUCTS)"),
    ],
)
def test_series_budgets_refuse_up_front(argv: tuple[str, ...], limit: str) -> None:
    start = time.perf_counter()
    code, out, err = run(*argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert limit in err


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
        "--terms", "24", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 3 and doc["degree"] == 4
    assert len(doc["operators"]) == 1
    assert [0, 3, "1"] in doc["operators"][0]["coeffs"]


def test_pfop_sweep_reports_minimal_bidegree() -> None:
    code, out, _ = run("pfop", "--entry", "17", "--terms", "30", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["order"], doc["degree"]) == (3, 4)


def test_pfop_exits_one_when_nothing_found() -> None:
    code, _, _ = run(
        "pfop", "--entry", "17", "--order", "1", "--degree", "1", "--terms", "12"
    )
    assert code == 1


def test_construct_toric() -> None:
    code, out, _ = run(
        "construct", "toric", "--rays", "1,0,0;0,1,0;0,0,1;-1,-1,-1"
    )
    assert code == 0
    assert out.strip() == "x + y + z + x^-1*y^-1*z^-1"


def test_construct_ci_and_grassmannian() -> None:
    code, out, _ = run("construct", "ci", "--n", "4", "--degrees", "3")
    assert code == 0 and "x11" in out
    code, out, _ = run("construct", "grassmannian", "--k", "2", "--n", "6")
    assert code == 0 and "X42" in out


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


def test_error_paths_exit_two() -> None:
    code, _, err = run("series", "--poly", "x+(")
    assert code == 2 and err.startswith("error:")
    code, _, err = run("verify", "--entry", "99")
    assert code == 2 and "no entry 99" in err
    code, _, err = run("series", "--entry", "17", "--corpus", "/nonexistent.json")
    assert code == 2
    code, _, err = run("construct", "toric", "--rays", "1,0;1,0")
    assert code == 2


def test_argparse_usage_errors_exit_two() -> None:
    with pytest.raises(SystemExit) as exc:
        main(["construct", "ci", "--degrees", "3"])  # missing required --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["series", "--no-such-flag"])
    assert exc.value.code == 2


def test_console_entry_point_runs() -> None:
    # The child imports the same weaklg as this test, installed or not.
    package_root = str(Path(weaklg.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "weaklg", "series", "--poly", "x+1/x", "--terms", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "phi(2) = 2" in proc.stdout
