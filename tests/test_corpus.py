from __future__ import annotations

import json
import re
import unittest.mock
from pathlib import Path

import pytest

from weaklg.corpus import (
    CorpusError,
    FanoEntry,
    ReferenceSeries,
    get_entry,
    load_corpus,
    verify_entry,
)
from weaklg.expr import parse, to_laurent

EXPECTED_INDEX_AND_DEGREE = {
    1: (1, 2), 2: (1, 4), 3: (1, 6), 4: (1, 8), 5: (1, 10), 6: (1, 12),
    7: (1, 14), 8: (1, 16), 9: (1, 18), 10: (1, 22), 11: (2, 8), 12: (2, 16),
    13: (2, 24), 14: (2, 32), 15: (2, 40), 16: (3, 54), 17: (4, 64),
}


def write_corpus(tmp_path: Path, doc: dict) -> Path:
    p = tmp_path / "corpus.json"
    p.write_text(json.dumps(doc))
    return p


def builtin_doc() -> dict:
    import importlib.resources as res

    with (res.files("weaklg") / "data" / "corpus.json").open() as fh:
        return json.load(fh)


def test_corpus_has_all_seventeen_entries() -> None:
    entries = load_corpus()
    assert [e.id for e in entries] == list(range(1, 18))
    for e in entries:
        assert (e.fano_index, e.degree) == EXPECTED_INDEX_AND_DEGREE[e.id]
        assert e.description


def test_every_polynomial_parses_in_three_torus_variables() -> None:
    for e in load_corpus():
        f = e.laurent()
        assert f.nvars == 3
        for alt in e.alternate_laurents():
            assert alt.nvars == 3


def test_specific_polynomial_texts_are_pinned() -> None:
    assert get_entry(7).polynomial == (
        "(x+y+z+1)^2/x + (x+y+z+1)*(y+z+1)*(z+1)^2/(x*y*z)"
    )
    assert get_entry(17).polynomial == "x+y+z+1/(x*y*z)"
    assert get_entry(15).polynomial == "x+y+z+1/x+1/y+1/z+x*y*z"


def test_entry_ten_has_thirteen_monomials_plus_constant_four() -> None:
    f = get_entry(10).laurent()
    assert f.constant_term() == 4
    assert len(f.support()) == 14


def test_entry_eleven_carries_an_alternate_model() -> None:
    e = get_entry(11)
    assert e.alternates == ("(x^2+y^2+z^2+1)^3/(x*y*z)",)


def test_ci_metadata_rows() -> None:
    expected = {2: (4, (4,)), 3: (5, (2, 3)), 4: (6, (2, 2, 2)),
                13: (4, (3,)), 14: (5, (2, 2)), 16: (4, (2,)), 17: (3, ())}
    for e in load_corpus():
        if e.id in expected:
            assert e.ci is not None
            assert (e.ci.ambient_dim, e.ci.degrees) == expected[e.id]
        else:
            assert e.ci is None


def test_weighted_metadata_rows() -> None:
    expected = {
        1: ((1, 1, 1, 1, 3), 6, (1, 1, 1, 3)),
        11: ((1, 1, 1, 2, 3), 6, (1, 2, 3)),
        12: ((1, 1, 1, 1, 2), 4, (1, 1, 2)),
    }
    for e in load_corpus():
        if e.id in expected:
            assert e.weighted is not None
            w = e.weighted
            assert (w.weights, w.degree, w.partition) == expected[e.id]
        else:
            assert e.weighted is None


def test_reference_provenances() -> None:
    for e in load_corpus():
        assert e.reference is not None
        if e.id == 7:
            assert e.reference.provenance == "published"
            assert e.reference.coeffs == (1, 4, 48, 760, 13840, 273504, 5703096)
        else:
            assert e.reference.provenance == "regression"
            assert e.reference.coeffs[0] == 1


def test_get_entry_unknown_id() -> None:
    with pytest.raises(CorpusError, match="no entry 99"):
        get_entry(99)
    with pytest.raises(CorpusError, match="no entry 0"):
        get_entry(0)


def test_bundled_corpus_is_parsed_once_but_files_on_every_call(tmp_path: Path) -> None:
    assert load_corpus() is load_corpus()
    assert get_entry(7) is load_corpus()[6]
    path = write_corpus(tmp_path, builtin_doc())
    assert load_corpus(path) == load_corpus()
    assert load_corpus(path) is not load_corpus(path)
    doc = builtin_doc()
    doc["entries"][0]["degree"] = -2
    write_corpus(tmp_path, doc)
    with pytest.raises(CorpusError, match="entry 1: field 'degree' must be positive"):
        load_corpus(path)


def test_load_corpus_rejects_missing_entry(tmp_path: Path) -> None:
    doc = builtin_doc()
    doc["entries"] = [e for e in doc["entries"] if e["id"] != 5]
    with pytest.raises(CorpusError, match=re.escape("must contain ids 1..17 exactly once: missing ids [5]")):
        load_corpus(write_corpus(tmp_path, doc))


def test_load_corpus_rejects_duplicate_ids(tmp_path: Path) -> None:
    doc = builtin_doc()
    doc["entries"].append(dict(doc["entries"][0]))
    with pytest.raises(CorpusError, match=re.escape("duplicate ids [1]")):
        load_corpus(write_corpus(tmp_path, doc))


def test_load_corpus_rejects_malformed_fields(tmp_path: Path) -> None:
    cases = [
        ("polynomial", 12, "must be a nonempty string"),
        ("polynomial", "x + w", "is refused as a Laurent polynomial in x, y, z: unknown variable 'w'"),
        ("degree", -2, "must be positive"),
        ("fano_index", 0, "must be 1, 2, 3, or 4"),
        ("description", "", "must be a nonempty string"),
    ]
    for field, bad, cause in cases:
        doc = builtin_doc()
        doc["entries"][0][field] = bad
        with pytest.raises(CorpusError, match=re.escape(f"entry 1: field '{field}' {cause}")):
            load_corpus(write_corpus(tmp_path, doc))


def test_load_corpus_rejects_bad_reference_blocks(tmp_path: Path) -> None:
    for bad, cause in (
        ({"coeffs": ["2", "4"], "provenance": "published"}, "'reference_series.coeffs' must start with 1"),
        ({"coeffs": ["1", "x"], "provenance": "published"}, "'reference_series.coeffs[1]' is not a decimal integer"),
        ({"coeffs": ["1", "4"], "provenance": "guesswork"},
         "'reference_series.provenance' must be one of ('published', 'regression')"),
        ({"coeffs": [], "provenance": "published"}, "'reference_series.coeffs' must be a nonempty list"),
    ):
        doc = builtin_doc()
        doc["entries"][6]["reference_series"] = bad
        with pytest.raises(CorpusError, match=re.escape(f"entry 7: field {cause}")):
            load_corpus(write_corpus(tmp_path, doc))


def test_load_corpus_rejects_inconsistent_ci_block(tmp_path: Path) -> None:
    doc = builtin_doc()
    doc["entries"][1]["ci"] = {"N": 4, "degrees": [1]}
    with pytest.raises(CorpusError, match=re.escape("entry 2: field 'ci' is invalid: all degrees must be >= 2")):
        load_corpus(write_corpus(tmp_path, doc))


def test_load_corpus_checks_a_ci_block_without_the_closed_form(tmp_path: Path) -> None:
    bundled = [e.ci for e in load_corpus()]
    with unittest.mock.patch("weaklg.corpus.ci_period_closed_form", side_effect=AssertionError("closed form")):
        assert [e.ci for e in load_corpus(write_corpus(tmp_path, builtin_doc()))] == bundled
    assert sum(ci is not None for ci in bundled) == 7


def test_load_corpus_rejects_inconsistent_weighted_block(tmp_path: Path) -> None:
    doc = builtin_doc()
    doc["entries"][0]["weighted"]["d"] = 7
    with pytest.raises(CorpusError, match=re.escape(
            "entry 1: field 'weighted' is invalid: partition (1, 1, 1, 3) does not sum to the degree 7")):
        load_corpus(write_corpus(tmp_path, doc))


def details(report) -> dict:
    return {c.key: c.detail for c in report.checks}


def test_verify_entry_passes_on_published_series() -> None:
    r = verify_entry(get_entry(7), terms=6)
    assert r.passed and bool(r)
    assert r.shift == 4
    assert [c.key for c in r.checks] == ["reference", "origin_interior", "semiweak"]
    assert all(c.passed for c in r.checks)
    checks = details(r)
    assert checks["reference"].matched
    assert checks["origin_interior"] is True
    assert checks["semiweak"].ok
    d = r.to_json_dict()
    assert d["passed"] is True
    assert d["series"][0] == "1"


def test_verify_entry_catches_a_tampered_reference() -> None:
    entry = get_entry(7)
    coeffs = list(entry.reference.coeffs)
    coeffs[3] += 1
    tampered = FanoEntry(entry.id, entry.fano_index, entry.degree, entry.description, entry.polynomial,
                         entry.alternates, ReferenceSeries(tuple(coeffs), "published"), entry.ci, entry.weighted)
    r = verify_entry(tampered, terms=6)
    assert not r.passed
    reference = r.checks[0]
    assert reference.key == "reference" and not reference.passed
    assert not reference.detail.matched
    assert reference.detail.first_mismatch == 3
    assert reference.lines[0].startswith("reference: MISMATCH at t^3: ")
    assert [c.passed for c in r.checks[1:]] == [True, True]


def test_verify_entry_checks_ci_and_alternates() -> None:
    r11 = verify_entry(get_entry(11), terms=8)
    assert r11.passed
    alternates = details(r11)["alternates"]
    assert alternates and all(m.matched for m in alternates)
    assert r11.series[2] == 120
    r13 = verify_entry(get_entry(13), terms=8)
    assert r13.passed
    assert details(r13)["ci"].matched


def test_report_json_and_text_iterate_the_checks() -> None:
    r = verify_entry(get_entry(11), terms=8)
    assert hash(r) == hash(verify_entry(get_entry(11), terms=8))
    d = r.to_json_dict()
    assert set(d) == {"entry", "terms", "shift", "series", "passed", *(c.key for c in r.checks)}
    assert d["alternates"] == [{"matched": True, "upto": 8}]
    lines = r.text_lines()
    assert lines[2:-1] == ["  " + line for c in r.checks for line in c.lines]
    assert lines[-1] == "  passed: True"


def test_verify_entry_is_deterministic() -> None:
    e = get_entry(17)
    assert verify_entry(e, terms=10) == verify_entry(e, terms=10)


def test_verify_entry_requires_enough_terms() -> None:
    with pytest.raises(ValueError, match="terms must be >= 6"):
        verify_entry(get_entry(17), terms=5)


def test_entry_laurent_matches_direct_parse() -> None:
    e = get_entry(9)
    assert e.laurent() == to_laurent(parse(e.polynomial), ("x", "y", "z"))


def test_each_corpus_text_is_converted_once(tmp_path: Path) -> None:
    # validation converts each polynomial and alternate; verify_entry reuses them
    path = write_corpus(tmp_path, builtin_doc())
    with unittest.mock.patch("weaklg.expr.to_laurent", wraps=to_laurent) as convert:
        for e in load_corpus(path):
            verify_entry(e, terms=12)
    assert convert.call_count == 18


def test_corpus_polynomial_refusals_name_the_entry_and_field(tmp_path: Path) -> None:
    for field, bad, cause in (
        ("polynomial", "(x+1)^99999", "MAX_POWER_TERMS"),
        ("polynomial", "a+b", "unknown variable 'a'"),
        ("polynomial", "1/(x-x)", "non-monomial denominator"),
        ("alternates", ["x+1/x", "x+y^"], "expected an integer"),
    ):
        doc = builtin_doc()
        doc["entries"][2][field] = bad
        with pytest.raises(CorpusError) as err:
            load_corpus(write_corpus(tmp_path, doc))
        message = str(err.value)
        assert message.startswith("entry 3: field 'polynomial'" if field == "polynomial"
                                  else "entry 3: field 'alternates[1]'"), message
        assert cause in message, message


def test_fano_entry_rejects_wrong_variables() -> None:
    from weaklg.expr import NotLaurentError

    with pytest.raises(NotLaurentError, match="unknown variable 'a'"):
        FanoEntry(
            id=1,
            fano_index=1,
            degree=2,
            description="test",
            polynomial="a+b",
        ).laurent()
