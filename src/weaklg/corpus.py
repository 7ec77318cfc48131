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
from functools import cache, cached_property
from pathlib import Path

from . import expr as ex
from ._frozen import frozen
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


@frozen
class ReferenceSeries:
    coeffs: tuple[int, ...]
    provenance: str


@frozen
class CompleteIntersection:
    ambient_dim: int
    degrees: tuple[int, ...]


@frozen
class WeightedHypersurface:
    weights: tuple[int, ...]
    degree: int
    partition: tuple[int, ...]


@frozen
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
        return self._laurents[0]

    def alternate_laurents(self) -> tuple[LaurentPolynomial, ...]:
        return self._laurents[1:]

    @cached_property
    def _laurents(self) -> tuple[LaurentPolynomial, ...]:
        # the polynomial, then each alternate; _parse_entry keeps those it validated
        return tuple(map(_to_corpus_laurent, (self.polynomial, *self.alternates)))

    def series_check_keys(self) -> list[str]:
        """Sorted keys of the series checks that this entry's data admits."""
        return sorted(key for key, data in (("reference", self.reference), ("ci", self.ci),
                                            ("alternates", self.alternates)) if data)


@frozen
class Check:
    """One named check of a verification report: what it measured, which
    the JSON report holds under `key`, and its lines of the text report.
    A tuple detail holds one MatchReport per alternate."""

    key: str
    passed: bool
    detail: bool | MatchReport | tuple[MatchReport, ...] | SemiweakReport
    lines: tuple[str, ...]

    def detail_json(self) -> object:
        if isinstance(self.detail, tuple):
            return [m.to_json_dict() for m in self.detail]
        return self.detail if isinstance(self.detail, bool) else self.detail.to_json_dict()


@frozen
class VerificationReport:
    """Everything verify_entry measured for one entry.

    `series` is the canonical zero-shift constant-term series; `shift` is
    the constant that was subtracted from the stored polynomial to get it.
    `checks` are the checks in report order, and the entry passes when
    every one of them does.  Every bundled entry passes.
    """

    entry_id: int
    terms: int
    shift: int
    series: tuple[int, ...]
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __bool__(self) -> bool:
        return self.passed

    def to_json_dict(self) -> dict:
        out: dict = {
            "entry": self.entry_id,
            "terms": self.terms,
            "shift": self.shift,
            "series": [str(c) for c in self.series],
            "passed": self.passed,
        }
        out.update((c.key, c.detail_json()) for c in self.checks)
        return out

    def text_lines(self) -> list[str]:
        head = ", ".join(str(c) for c in self.series[:8]) + (", ..." if len(self.series) > 8 else "")
        return [f"entry {self.entry_id}: shift {self.shift}", "  series " + head,
                *("  " + line for c in self.checks for line in c.lines), f"  passed: {self.passed}"]


def _to_corpus_laurent(text: str) -> LaurentPolynomial:
    return ex.to_laurent(ex.parse(text), CORPUS_VARIABLES)


def _require(condition: bool, entry_id: object, field: str, problem: str) -> None:
    if not condition:
        raise CorpusError(f"entry {entry_id}: field {field!r} {problem}")


def _as_int(value: object, entry_id: object, field: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), entry_id, field, "must be an integer")
    return value  # type: ignore[return-value]


def _parse_polynomial(text: object, entry_id: object, field: str) -> LaurentPolynomial:
    _require(isinstance(text, str) and bool(text), entry_id, field, "must be a nonempty string")
    try:
        return _to_corpus_laurent(text)  # type: ignore[arg-type]
    except ValueError as err:  # a parse error, a stray name, a non-monomial denominator or a budget
        raise CorpusError(f"entry {entry_id}: field {field!r} is refused as a Laurent polynomial in x, y, z: {err}") from err


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
    laurents = [_parse_polynomial(raw["polynomial"], eid, "polynomial")]
    alternates = raw.get("alternates", [])
    _require(isinstance(alternates, list), eid, "alternates", "must be a list")
    laurents += (_parse_polynomial(alt, eid, f"alternates[{i}]") for i, alt in enumerate(alternates))

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

    entry = FanoEntry(
        id=eid,
        fano_index=fano_index,
        degree=degree,
        description=description,
        polynomial=raw["polynomial"],
        alternates=tuple(alternates),
        reference=reference,
        ci=ci,
        weighted=weighted,
    )
    object.__setattr__(entry, "_laurents", tuple(laurents))  # converted once, when validated
    return entry


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
    # Safe to share: a tuple of frozen entries holding only tuples and
    # Laurent polynomials, which are immutable.
    return _parse_corpus((Path(__file__).parent / "data" / "corpus.json").read_text("utf-8"))


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

    checks = []
    if entry.reference is not None:
        ref = normalize_shift(IntegerSeries(entry.reference.coeffs))
        upto = min(canonical.order, ref.order)
        checks.append(_series_check("reference", "reference", compare_series(canonical, ref, upto)))
    if entry.ci is not None:
        raw = shifted_series(canonical, shift)
        closed = ci_period_closed_form(entry.ci.ambient_dim, entry.ci.degrees, terms)
        checks.append(_series_check("ci", "closed form", compare_series(raw, closed, terms)))
    alternates = tuple(compare_series(canonical, constant_term_series(g - g.constant_term(), terms), terms)
                       for g in entry.alternate_laurents())
    if alternates:
        checks.append(Check("alternates", all(m.matched for m in alternates), alternates,
                            tuple(_match_line(f"alternate {i}", m) for i, m in enumerate(alternates))))
    sw = semiweak_check(f, entry.degree)
    checks.append(Check("origin_interior", sw.origin_interior, sw.origin_interior,
                        (f"origin interior: {sw.origin_interior}",)))
    checks.append(Check("semiweak", sw.ok, sw, (semiweak_line(sw),)))
    return VerificationReport(entry.id, terms, shift, tuple(canonical.coeffs), tuple(checks))


def semiweak_line(sw: SemiweakReport) -> str:
    """The text verdict of a semiweak check, as `lg verify` and `lg semiweak` print it."""
    volume = f"dual volume {sw.dual_volume} vs degree {sw.expected}" if sw.dual_volume is not None else sw.reason
    return f"semiweak: {'yes' if sw.ok else 'no'} ({volume})"


def _match_line(label: str, m: MatchReport) -> str:
    return f"{label}: ok" if m.matched else f"{label}: MISMATCH at t^{m.first_mismatch}: {m.left} != {m.right}"


def _series_check(key: str, label: str, m: MatchReport) -> Check:
    return Check(key, m.matched, m, (_match_line(label, m),))
