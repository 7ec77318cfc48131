from __future__ import annotations

import dataclasses
import json
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
    with pytest.raises(CorpusError):
        get_entry(99)
    with pytest.raises(CorpusError):
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
    with pytest.raises(CorpusError):
        load_corpus(path)


def test_load_corpus_rejects_missing_entry(tmp_path: Path) -> None:
    doc = builtin_doc()
    doc["entries"] = [e for e in doc["entries"] if e["id"] != 5]
    with pytest.raises(CorpusError) as err:
        load_corpus(write_corpus(tmp_path, doc))
    assert "5" in str(err.value)


def test_load_corpus_rejects_duplicate_ids(tmp_path: Path) -> None:
    doc = builtin_doc()
    doc["entries"].append(dict(doc["entries"][0]))
    with pytest.raises(CorpusError):
        load_corpus(write_corpus(tmp_path, doc))


def test_load_corpus_rejects_malformed_fields(tmp_path: Path) -> None:
    cases = [
        ("polynomial", 12),
        ("polynomial", "x + w"),
        ("degree", -2),
        ("fano_index", 0),
        ("description", ""),
    ]
    for field, bad in cases:
        doc = builtin_doc()
        doc["entries"][0][field] = bad
        with pytest.raises(CorpusError) as err:
            load_corpus(write_corpus(tmp_path, doc))
        assert "entry 1" in str(err.value)


def test_load_corpus_rejects_bad_reference_blocks(tmp_path: Path) -> None:
    for bad in (
        {"coeffs": ["2", "4"], "provenance": "published"},
        {"coeffs": ["1", "x"], "provenance": "published"},
        {"coeffs": ["1", "4"], "provenance": "guesswork"},
        {"coeffs": [], "provenance": "published"},
    ):
        doc = builtin_doc()
        doc["entries"][6]["reference_series"] = bad
        with pytest.raises(CorpusError) as err:
            load_corpus(write_corpus(tmp_path, doc))
        assert "entry 7" in str(err.value)


def test_load_corpus_rejects_inconsistent_ci_block(tmp_path: Path) -> None:
    doc = builtin_doc()
    doc["entries"][1]["complete_intersection"] = {"ambient_dim": 4, "degrees": [1]}
    with pytest.raises(CorpusError):
        load_corpus(write_corpus(tmp_path, doc))


def test_verify_entry_passes_on_published_series() -> None:
    r = verify_entry(get_entry(7), terms=6)
    assert r.passed and bool(r)
    assert r.shift == 4
    assert r.reference is not None and r.reference.matched
    assert r.origin_interior
    assert r.semiweak.ok
    d = r.to_json_dict()
    assert d["passed"] is True
    assert d["series"][0] == "1"


def test_verify_entry_catches_a_tampered_reference() -> None:
    entry = get_entry(7)
    coeffs = list(entry.reference.coeffs)
    coeffs[3] += 1
    tampered = dataclasses.replace(
        entry, reference=ReferenceSeries(tuple(coeffs), "published")
    )
    r = verify_entry(tampered, terms=6)
    assert not r.passed
    assert r.reference is not None
    assert not r.reference.matched
    assert r.reference.first_mismatch == 3


def test_verify_entry_checks_ci_and_alternates() -> None:
    r11 = verify_entry(get_entry(11), terms=8)
    assert r11.passed
    assert r11.alternates and all(m.matched for m in r11.alternates)
    assert r11.series[2] == 120
    r13 = verify_entry(get_entry(13), terms=8)
    assert r13.passed
    assert r13.ci is not None and r13.ci.matched


def test_verify_entry_is_deterministic() -> None:
    e = get_entry(17)
    assert verify_entry(e, terms=10) == verify_entry(e, terms=10)


def test_verify_entry_requires_enough_terms() -> None:
    with pytest.raises(ValueError):
        verify_entry(get_entry(17), terms=5)


def test_entry_laurent_matches_direct_parse() -> None:
    e = get_entry(9)
    assert e.laurent() == to_laurent(parse(e.polynomial), ("x", "y", "z"))


def test_fano_entry_rejects_wrong_variables() -> None:
    from weaklg.expr import NotLaurentError

    with pytest.raises(NotLaurentError):
        FanoEntry(
            id=1,
            fano_index=1,
            degree=2,
            description="test",
            polynomial="a+b",
        ).laurent()
