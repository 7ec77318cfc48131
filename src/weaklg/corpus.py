"""Bundled table of rank-1 Fano threefold mirror candidates plus verification.

Seventeen entries, one per deformation class, each carrying a 3-variable
Laurent polynomial, the Fano index and anticanonical degree, and optional
cross-check data: a stored reference series, complete-intersection data for
the closed-form period formula, weighted-projective hypersurface data, and
alternate polynomials for the same variety.

Series comparisons follow the shift convention f -> f + a: two models of
the same variety may differ by an added constant, so verify_entry always
canonicalizes to the zero-constant-term representative before comparing
against references or alternates.  The closed-form complete-intersection
series is the one exception: it is normalized to match the raw series of
the generated polynomial (which can carry a nonzero shift, e.g. the quartic
threefold where phi(1) = 24), so that comparison is raw against raw.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from importlib import resources
from pathlib import Path

from . import expr as ex
from .constructors import weighted_hypersurface_system
from .laurent import LaurentPolynomial
from .polytopes import SemiweakReport, semiweak_check
from .series import (
    IntegerSeries,
    MatchReport,
    ci_period_closed_form,
    compare_series,
    constant_term_series,
    normalize_shift,
    shifted_series,
)

CORPUS_VARIABLES = ("x", "y", "z")
_PROVENANCES = ("published", "regression")


class CorpusError(ValueError):
    """Corpus file violates the schema; message names the entry and field."""


@dataclass(frozen=True)
class ReferenceSeries:
    coeffs: tuple[int, ...]
    provenance: str


@dataclass(frozen=True)
class CompleteIntersection:
    ambient_dim: int
    degrees: tuple[int, ...]


@dataclass(frozen=True)
class WeightedHypersurface:
    weights: tuple[int, ...]
    degree: int
    partition: tuple[int, ...]


@dataclass(frozen=True)
class FanoEntry:
    id: int
    fano_index: int
    degree: int
    description: str
    polynomial: str
    alternates: tuple[str, ...] = ()
    reference: ReferenceSeries | None = None
    ci: CompleteIntersection | None = None
    weighted: WeightedHypersurface | None = None

    def laurent(self) -> LaurentPolynomial:
        return _to_corpus_laurent(self.polynomial)

    def alternate_laurents(self) -> tuple[LaurentPolynomial, ...]:
        return tuple(_to_corpus_laurent(a) for a in self.alternates)


@dataclass(frozen=True)
class VerificationReport:
    """Everything verify_entry measured for one entry.

    `series` is the canonical zero-shift constant-term series; `shift` is
    the constant that was subtracted from the stored polynomial to get it.
    `passed` aggregates the exact series comparisons and the interior-origin
    requirement; the semiweak outcome is reported but not aggregated, since
    the dual-volume condition is a strictly stronger property that the
    bundled models are not all claimed to satisfy.
    """

    entry_id: int
    terms: int
    shift: int
    series: tuple[int, ...]
    origin_interior: bool
    semiweak: SemiweakReport
    reference: MatchReport | None = None
    ci: MatchReport | None = None
    alternates: tuple[MatchReport, ...] = ()
    passed: bool = False

    def __bool__(self) -> bool:
        return self.passed

    def to_json_dict(self) -> dict:
        out: dict = {
            "entry": self.entry_id,
            "terms": self.terms,
            "shift": self.shift,
            "series": [str(c) for c in self.series],
            "origin_interior": self.origin_interior,
            "semiweak": self.semiweak.to_json_dict(),
            "passed": self.passed,
        }
        if self.reference is not None:
            out["reference"] = self.reference.to_json_dict()
        if self.ci is not None:
            out["ci"] = self.ci.to_json_dict()
        if self.alternates:
            out["alternates"] = [m.to_json_dict() for m in self.alternates]
        return out


def _to_corpus_laurent(text: str) -> LaurentPolynomial:
    e = ex.parse(text)
    stray = set(ex.variables(e)) - set(CORPUS_VARIABLES)
    if stray:
        raise ex.NotLaurentError(f"unexpected variables {sorted(stray)}; corpus models use x, y, z")
    return ex.to_laurent(e, CORPUS_VARIABLES)


def _require(condition: bool, entry_id: object, field: str, problem: str) -> None:
    if not condition:
        raise CorpusError(f"entry {entry_id}: field {field!r} {problem}")


def _as_int(value: object, entry_id: object, field: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), entry_id, field, "must be an integer")
    return value  # type: ignore[return-value]


def _parse_polynomial(text: object, entry_id: object, field: str) -> str:
    _require(isinstance(text, str) and bool(text), entry_id, field, "must be a nonempty string")
    try:
        _to_corpus_laurent(text)  # type: ignore[arg-type]
    except (ex.ParseError, ex.NotLaurentError) as err:
        raise CorpusError(f"entry {entry_id}: field {field!r} does not define a Laurent polynomial in x, y, z: {err}") from err
    return text  # type: ignore[return-value]


def _parse_entry(raw: object, position: int) -> FanoEntry:
    if not isinstance(raw, dict):
        raise CorpusError(f"entry at position {position} is not an object")
    eid = raw.get("id", f"<position {position}>")
    eid = _as_int(eid, eid, "id")
    _require(1 <= eid <= 17, eid, "id", "must lie in 1..17")
    known = {"id", "fano_index", "degree", "description", "polynomial",
             "alternates", "reference_series", "ci", "weighted"}
    for key in raw:
        _require(key in known, eid, key, "is not a recognized field")
    for key in ("fano_index", "degree", "description", "polynomial"):
        _require(key in raw, eid, key, "is required")

    fano_index = _as_int(raw["fano_index"], eid, "fano_index")
    _require(fano_index in (1, 2, 3, 4), eid, "fano_index", "must be 1, 2, 3, or 4")
    degree = _as_int(raw["degree"], eid, "degree")
    _require(degree > 0, eid, "degree", "must be positive")
    description = raw["description"]
    _require(isinstance(description, str) and bool(description), eid, "description", "must be a nonempty string")
    polynomial = _parse_polynomial(raw["polynomial"], eid, "polynomial")

    alternates: list[str] = []
    if "alternates" in raw:
        _require(isinstance(raw["alternates"], list), eid, "alternates", "must be a list")
        for i, alt in enumerate(raw["alternates"]):
            alternates.append(_parse_polynomial(alt, eid, f"alternates[{i}]"))

    reference = None
    if "reference_series" in raw:
        ref = raw["reference_series"]
        _require(isinstance(ref, dict), eid, "reference_series", "must be an object")
        _require(set(ref) == {"coeffs", "provenance"}, eid, "reference_series",
                 "must have exactly the fields 'coeffs' and 'provenance'")
        _require(ref["provenance"] in _PROVENANCES, eid, "reference_series.provenance",
                 f"must be one of {_PROVENANCES}")
        _require(isinstance(ref["coeffs"], list) and ref["coeffs"], eid,
                 "reference_series.coeffs", "must be a nonempty list")
        coeffs = []
        for i, c in enumerate(ref["coeffs"]):
            _require(isinstance(c, str), eid, f"reference_series.coeffs[{i}]",
                     "must be a decimal string (coefficients overflow 64-bit integers)")
            try:
                coeffs.append(int(c))
            except ValueError:
                raise CorpusError(f"entry {eid}: field 'reference_series.coeffs[{i}]' is not a decimal integer") from None
        _require(coeffs[0] == 1, eid, "reference_series.coeffs", "must start with 1")
        reference = ReferenceSeries(tuple(coeffs), ref["provenance"])

    ci = None
    if "ci" in raw:
        data = raw["ci"]
        _require(isinstance(data, dict) and set(data) == {"N", "degrees"}, eid, "ci",
                 "must be an object with exactly the fields 'N' and 'degrees'")
        ambient = _as_int(data["N"], eid, "ci.N")
        _require(isinstance(data["degrees"], list), eid, "ci.degrees", "must be a list")
        degs = tuple(_as_int(k, eid, "ci.degrees") for k in data["degrees"])
        try:
            ci_period_closed_form(ambient, degs, 1)
        except ValueError as err:
            raise CorpusError(f"entry {eid}: field 'ci' is invalid: {err}") from err
        ci = CompleteIntersection(ambient, degs)

    weighted = None
    if "weighted" in raw:
        data = raw["weighted"]
        _require(isinstance(data, dict) and set(data) == {"weights", "d", "partition"}, eid,
                 "weighted", "must be an object with exactly the fields 'weights', 'd', 'partition'")
        _require(isinstance(data["weights"], list), eid, "weighted.weights", "must be a list")
        _require(isinstance(data["partition"], list), eid, "weighted.partition", "must be a list")
        weights = tuple(_as_int(w, eid, "weighted.weights") for w in data["weights"])
        d = _as_int(data["d"], eid, "weighted.d")
        partition = tuple(_as_int(w, eid, "weighted.partition") for w in data["partition"])
        try:
            weighted_hypersurface_system(weights, d, partition)
        except ValueError as err:
            raise CorpusError(f"entry {eid}: field 'weighted' is invalid: {err}") from err
        weighted = WeightedHypersurface(weights, d, partition)

    return FanoEntry(
        id=eid,
        fano_index=fano_index,
        degree=degree,
        description=description,
        polynomial=polynomial,
        alternates=tuple(alternates),
        reference=reference,
        ci=ci,
        weighted=weighted,
    )


def load_corpus(path: str | Path | None = None) -> tuple[FanoEntry, ...]:
    """Load the bundled table, or a compatible replacement from `path`.

    The result always holds ids 1..17 exactly once each, sorted.  The
    bundled table is parsed and validated once per process; a file given
    by `path` is read and validated on every call.
    """
    if path is None:
        return _load_bundled()
    return _parse_corpus(Path(path).read_text("utf-8"))


@cache
def _load_bundled() -> tuple[FanoEntry, ...]:
    # Safe to share: a tuple of frozen dataclasses holding only tuples.
    return _parse_corpus(resources.files("weaklg").joinpath("data/corpus.json").read_text("utf-8"))


def _parse_corpus(text: str) -> tuple[FanoEntry, ...]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise CorpusError(f"corpus is not valid JSON: {err}") from err
    if not isinstance(doc, dict) or "entries" not in doc or not isinstance(doc["entries"], list):
        raise CorpusError("corpus must be an object with an 'entries' list")
    entries = [_parse_entry(raw, i) for i, raw in enumerate(doc["entries"])]
    seen = [e.id for e in entries]
    if sorted(seen) != list(range(1, 18)):
        missing = sorted(set(range(1, 18)) - set(seen))
        dupes = sorted({i for i in seen if seen.count(i) > 1})
        problems = []
        if missing:
            problems.append(f"missing ids {missing}")
        if dupes:
            problems.append(f"duplicate ids {dupes}")
        raise CorpusError("corpus must contain ids 1..17 exactly once: " + "; ".join(problems))
    return tuple(sorted(entries, key=lambda e: e.id))


def get_entry(entry_id: int, path: str | Path | None = None) -> FanoEntry:
    for e in load_corpus(path):
        if e.id == entry_id:
            return e
    raise CorpusError(f"no entry {entry_id}")


def verify_entry(entry: FanoEntry, terms: int = 20) -> VerificationReport:
    """Run every available cross-check on one entry.

    Checks, in report order: the canonical zero-shift series against the
    stored reference (both sides shift-normalized first), the raw series
    against the complete-intersection closed form when that data is
    present, the canonical series of each alternate polynomial against the
    main one, the interior-origin condition on the Newton polytope, and
    the dual-volume (semiweak) condition against the anticanonical degree.
    """
    if terms < 6:
        raise ValueError("terms must be >= 6 for a meaningful comparison")
    f = entry.laurent()
    shift = f.constant_term()
    canonical = constant_term_series(f - shift, terms)

    reference_report = None
    if entry.reference is not None:
        ref = normalize_shift(IntegerSeries(entry.reference.coeffs))
        upto = min(canonical.order, ref.order)
        reference_report = compare_series(canonical, ref, upto)

    ci_report = None
    if entry.ci is not None:
        raw = shifted_series(canonical, shift)
        closed = ci_period_closed_form(entry.ci.ambient_dim, entry.ci.degrees, terms)
        ci_report = compare_series(raw, closed, terms)

    alternate_reports = []
    for g in entry.alternate_laurents():
        alt_canonical = constant_term_series(g - g.constant_term(), terms)
        alternate_reports.append(compare_series(canonical, alt_canonical, terms))

    semiweak = semiweak_check(f, entry.degree)
    origin_interior = semiweak.origin_interior

    passed = origin_interior
    for report in (reference_report, ci_report, *alternate_reports):
        if report is not None:
            passed = passed and report.matched

    return VerificationReport(
        entry_id=entry.id,
        terms=terms,
        shift=shift,
        series=tuple(canonical.coeffs),
        origin_interior=origin_interior,
        semiweak=semiweak,
        reference=reference_report,
        ci=ci_report,
        alternates=tuple(alternate_reports),
        passed=passed,
    )
