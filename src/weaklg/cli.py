"""Command line surface.

One subcommand per library operation.  Exit codes: 0 for success or a
passing check, 1 for a failing check (series mismatch, unequal identity,
volume mismatch, no annihilator in a cell the truncation determines), 2 for
usage or input errors, and 141 (128 + SIGPIPE) when the reader closes
stdout early.  With --format json the output is a single JSON document with
sorted keys, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable, Iterable
from pathlib import Path

from . import expr as ex
from .annihilator import (
    MAX_DEGREE,
    MAX_ORDER,
    check_solve_budget,
    check_sweep_budget,
    determined,
    find_annihilator,
    find_minimal_annihilator,
    slack_line,
    undetermined_note,
)
from .constructors import (
    ConstrainedModel,
    _hori_vafa_text,
    eliminate,
    grassmannian_hyperplane_system,
    grassmannian_polynomial,
    grassmannian_variables,
    toric_polynomial,
    weighted_hypersurface_system,
)
from .corpus import FanoEntry, get_entry, load_corpus, semiweak_line, verify_entry
from .laurent import LaurentPolynomial
from .polytopes import (
    Polytope,
    contains_origin_interior,
    dual_polytope,
    ehrhart_counts,
    newton_polytope,
    normalized_volume,
    semiweak_check,
)
from .series import coefficient_bits, constant_term_series


def _emit(args: argparse.Namespace, payload: dict, text_lines: Iterable[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated integer list, got {text!r}") from None


def _input_entry(args: argparse.Namespace) -> FanoEntry | None:
    """The corpus entry that --entry names, or None when --poly is given."""
    if args.entry is not None and args.poly is not None:
        raise ValueError("give either --entry or --poly, not both")
    if args.entry is None and args.poly is None:
        raise ValueError("one of --entry or --poly is required")
    return None if args.entry is None else get_entry(args.entry, args.corpus)


def _input_polynomial(args: argparse.Namespace) -> LaurentPolynomial:
    """Resolve --entry/--poly to a Laurent polynomial."""
    entry = _input_entry(args)
    if entry is not None:
        return entry.laurent()
    e = ex.parse(args.poly)
    return ex.to_laurent(e, tuple(ex.variables(e)) or ("x",))


def _selected_polytope(args: argparse.Namespace) -> Polytope:
    p = newton_polytope(_input_polynomial(args))
    return dual_polytope(p) if args.dual else p


# --- subcommand handlers ---------------------------------------------------

def _cmd_list(args: argparse.Namespace) -> int:
    entries = load_corpus(args.corpus)
    payload = {
        "entries": [
            {
                "id": e.id,
                "fano_index": e.fano_index,
                "degree": e.degree,
                "description": e.description,
                "polynomial": e.polynomial,
                "checks": e.series_check_keys(),
            }
            for e in entries
        ]
    }
    lines = [f"{'id':>2}  {'idx':>3}  {'deg':>3}  description"]
    for e in entries:
        lines.append(f"{e.id:>2}  {e.fano_index:>3}  {e.degree:>3}  {e.description}")
    _emit(args, payload, lines)
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    s = constant_term_series(_input_polynomial(args), args.terms)
    if args.format == "json":
        # the bytes _emit prints for {"terms": T, "series": [str(c), ...]}
        # (decimal strings: the integers overflow doubles long before T=20),
        # written a coefficient at a time instead of as one document
        write = sys.stdout.write
        sep = '\n    '
        write('{\n  "series": [')
        for c in s.coeffs:
            write(f'{sep}"{c}"')
            sep = ',\n    '
        write(f'\n  ],\n  "terms": {args.terms}\n}}\n')
    else:
        _emit(args, {}, (f"phi({i}) = {c}" for i, c in enumerate(s.coeffs)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.entry is None:
        raise ValueError("--entry is required")
    report = verify_entry(get_entry(args.entry, args.corpus), args.terms)
    _emit(args, report.to_json_dict(), report.text_lines())
    return 0 if report.passed else 1


def _cmd_verify_all(args: argparse.Namespace) -> int:
    reports = [verify_entry(e, args.terms) for e in load_corpus(args.corpus)]
    all_passed = all(r.passed for r in reports)
    payload = {"passed": all_passed, "reports": [r.to_json_dict() for r in reports]}
    lines = []
    for r in reports:
        lines.extend(r.text_lines())
    lines.append(f"overall: {'pass' if all_passed else 'FAIL'}")
    _emit(args, payload, lines)
    return 0 if all_passed else 1


def _cmd_polytope(args: argparse.Namespace) -> int:
    p = _selected_polytope(args)
    payload = p.to_json_dict()
    payload["origin_interior"] = contains_origin_interior(p)
    lines = [f"dim {p.dim}, {len(p.vertices)} vertices, {len(p.facets)} facets"]
    lines += ["vertex " + " ".join(str(c) for c in v) for v in p.vertices]
    if p.is_full_dimensional:
        payload["normalized_volume"] = str(normalized_volume(p))
        lines.append(f"origin interior: {payload['origin_interior']}")
        lines.append(f"normalized volume: {payload['normalized_volume']}")
    else:
        lines.append("not full-dimensional")
    _emit(args, payload, lines)
    return 0


def _cmd_semiweak(args: argparse.Namespace) -> int:
    entry = _input_entry(args)
    if entry is None and args.target is None:
        raise ValueError("--target is required with --poly")
    f = _input_polynomial(args) if entry is None else entry.laurent()
    report = semiweak_check(f, entry.degree if args.target is None else args.target)
    _emit(args, report.to_json_dict(), [semiweak_line(report)])
    return 0 if report.ok else 1


def _cmd_ehrhart(args: argparse.Namespace) -> int:
    p = _selected_polytope(args)
    result = ehrhart_counts(p, args.kmax)
    payload: dict = {"counts": [str(c) for c in result.counts]}
    lines = [f"L({k}) = {c}" for k, c in enumerate(result.counts)]
    if p.is_lattice:
        payload["polynomial"] = [str(c) for c in result.polynomial]
        lines.append("polynomial coefficients (ascending): " + ", ".join(payload["polynomial"]))
    else:  # a quasi-polynomial in k, whose period divides this lcm
        payload["period"] = p.denominator
        lines.append(f"period {payload['period']} (lcm of the vertex denominators): the counts are a quasi-polynomial")
    _emit(args, payload, lines)
    return 0


def _cmd_pfop(args: argparse.Namespace) -> int:
    if (args.order is None) != (args.degree is None):
        raise ValueError("--order and --degree must be given together")
    f = _input_polynomial(args)
    bits = coefficient_bits(f, args.terms)
    if args.order is None:
        check_sweep_budget(args.terms, bits)
        s = constant_term_series(f, args.terms)
        found = find_minimal_annihilator(s)
        if found is None:
            note = undetermined_note(s, MAX_ORDER, MAX_DEGREE, "every cell of the sweep")
            _emit(args, {"operators": []}, ["no annihilator found in the sweep", *([note] if note else [])])
            return 1
        order, degree, basis = found
        lines = [f"minimal bounds: order {order}, degree {degree}", slack_line(s, order, degree)]
    else:
        order, degree = args.order, args.degree
        check_solve_budget(args.terms, bits, order, degree)
        s = constant_term_series(f, args.terms)
        basis, lines = [], [slack_line(s, order, degree)]
        if determined(s, order, degree):
            basis = find_annihilator(s, order, degree)
            lines += [] if basis else ["no annihilator at these bounds"]
    lines += [op.pretty() for op in basis]
    _emit(args, {"order": order, "degree": degree, "operators": [op.to_json_dict() for op in basis]}, lines)
    return 0 if basis else 1


def _chunks(text: str) -> list[str]:
    """The nonempty stripped parts of a semicolon-separated option."""
    return [chunk for chunk in map(str.strip, text.split(";")) if chunk]


def _parse_rays(text: str) -> list[tuple[int, ...]]:
    rays = [_parse_int_list(chunk, "each ray") for chunk in _chunks(text)]
    if not rays:
        raise ValueError("--rays must list at least one ray, e.g. '1,0;0,1;-1,-1'")
    return rays


def _emit_polynomial(args: argparse.Namespace, f: LaurentPolynomial, names: tuple[str, ...]) -> int:
    text = f.render(names)
    _emit(args, {"polynomial": text, "variables": list(names)}, [text])
    return 0


def _cmd_construct_toric(args: argparse.Namespace) -> int:
    f = toric_polynomial(_parse_rays(args.rays))
    return _emit_polynomial(args, f, f.default_names())


def _cmd_construct_ci(args: argparse.Namespace) -> int:
    text, names = _hori_vafa_text(args.n, _parse_int_list(args.degrees, "--degrees"))
    return _emit_polynomial(args, ex.to_laurent(ex.parse(text), names), names)


def _cmd_construct_grassmannian(args: argparse.Namespace) -> int:
    f = grassmannian_polynomial(args.k, args.n)
    return _emit_polynomial(args, f, grassmannian_variables(args.k, args.n))


def _emit_model(args: argparse.Namespace, model: ConstrainedModel) -> int:
    payload = model.to_json_dict()
    lines = ["variables: " + ", ".join(model.variables)]
    lines += [f"constraint {i}: {c} = 1" for i, c in enumerate(payload["constraints"])]
    lines.append("potential: " + payload["potential"])
    _emit(args, payload, lines)
    return 0


def _cmd_construct_grass_ci(args: argparse.Namespace) -> int:
    return _emit_model(args, grassmannian_hyperplane_system(args.k, args.n, args.sections))


def _cmd_construct_weighted(args: argparse.Namespace) -> int:
    weights = _parse_int_list(args.weights, "--weights")
    partition = _parse_int_list(args.partition, "--partition")
    return _emit_model(args, weighted_hypersurface_system(weights, args.d, partition))


def _parse_plan(text: str) -> list[tuple[int, str]]:
    plan = []
    for chunk in _chunks(text):
        left, sep, right = chunk.partition(":")
        if not sep or not right.strip():
            raise ValueError(f"plan step {chunk!r} must look like INDEX:VARIABLE")
        try:
            index = int(left)
        except ValueError:
            raise ValueError(f"plan step {chunk!r} must start with a constraint index") from None
        plan.append((index, right.strip()))
    if not plan:
        raise ValueError("--plan must list at least one step, e.g. '0:X11;4:X42'")
    return plan


def _parse_subs(text: str) -> dict[str, ex.Expr]:
    bindings: dict[str, ex.Expr] = {}
    for chunk in _chunks(text):
        name, sep, value = chunk.partition("=")
        name = name.strip()
        if not sep or not name.isidentifier():
            raise ValueError(f"substitution {chunk!r} must look like NAME=EXPRESSION")
        bindings[name] = ex.parse(value)
    return bindings


def _cmd_eliminate(args: argparse.Namespace) -> int:
    model = ConstrainedModel.from_json_dict(json.loads(Path(args.model).read_text("utf-8")))
    result = eliminate(model, _parse_plan(args.plan))
    final = result.expression
    if args.subs:
        final = ex.substitute(final, _parse_subs(args.subs))
    payload = {
        "expression": ex.render(final),
        "bindings": {name: ex.render(value) for name, value in result.bindings.items()},
    }
    _emit(args, payload, [payload["expression"]])
    return 0


def _cmd_identity(args: argparse.Namespace) -> int:
    left = ex.parse(args.left)
    right = ex.parse(args.right)
    result = ex.random_equal(left, right, trials=args.trials, seed=args.seed)
    payload: dict = {"equal": result.equal, "trials": result.trials}
    lines = [f"equal: {result.equal} ({result.trials} trials)"]
    if result.witness is not None:
        payload["witness"] = witness = {k: str(v) for k, v in sorted(result.witness.items())}
        lines.append("witness: " + ", ".join(f"{k}={v}" for k, v in witness.items()))
    _emit(args, payload, lines)
    return 0 if result.equal else 1


# --- parser ----------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, func: Callable[[argparse.Namespace], int], *, entry: bool = False,
                poly: bool = False, terms: bool = False, corpus: bool = False, dual: bool = False) -> None:
    sub.set_defaults(func=func)
    if entry:
        sub.add_argument("--entry", type=int, help="corpus entry id (1..17)")
    if poly:
        sub.add_argument("--poly", help="Laurent polynomial text, e.g. 'x+y+z+1/(x*y*z)'")
    if terms:
        sub.add_argument("--terms", type=int, default=20, help="series truncation order (default 20)")
    if corpus:
        sub.add_argument("--corpus", help="path to a replacement corpus JSON file")
    if dual:
        sub.add_argument("--dual", action="store_true", help="use the dual of the Newton polytope")
    sub.add_argument("--format", choices=("text", "json"), default="text")


class _Unbuilt:
    """A parser that ignores every call, for a command that argparse will
    not dispatch to: the top-level help and usage read only its name."""

    def __getattr__(self, name: str):
        return lambda *args, **kwargs: self


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of `lg`; given a command, those of the others are unbuilt."""

    def subparser(**kwargs) -> argparse.ArgumentParser | _Unbuilt:
        # prog is "lg <command>" or "lg <command> <recipe>"
        return argparse.ArgumentParser(**kwargs) if command in (None, kwargs["prog"].split()[1]) else _Unbuilt()

    parser = argparse.ArgumentParser(
        prog="lg",
        description="Construct and verify Laurent-polynomial mirror candidates for Fano threefolds.",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=subparser)

    p = subs.add_parser("list", help="list the bundled models")
    _add_common(p, _cmd_list, corpus=True)

    p = subs.add_parser("series", help="constant-term series of a polynomial")
    _add_common(p, _cmd_series, entry=True, poly=True, terms=True, corpus=True)

    p = subs.add_parser("verify", help="verify one corpus entry")
    _add_common(p, _cmd_verify, entry=True, terms=True, corpus=True)

    p = subs.add_parser("verify-all", help="verify every corpus entry")
    _add_common(p, _cmd_verify_all, terms=True, corpus=True)

    p = subs.add_parser("polytope", help="Newton polytope data")
    _add_common(p, _cmd_polytope, entry=True, poly=True, corpus=True, dual=True)

    p = subs.add_parser("semiweak", help="dual-volume check against the anticanonical degree")
    _add_common(p, _cmd_semiweak, entry=True, poly=True, corpus=True)
    p.add_argument("--target", type=int, help="expected normalized dual volume (defaults to the entry degree)")

    p = subs.add_parser("ehrhart", help="lattice point counts of dilations")
    _add_common(p, _cmd_ehrhart, entry=True, poly=True, corpus=True, dual=True)
    p.add_argument("--kmax", type=int, default=3, help="largest dilation factor (default 3)")

    p = subs.add_parser("pfop", help="annihilating differential operator of the series")
    _add_common(p, _cmd_pfop, entry=True, poly=True, terms=True, corpus=True)
    p.add_argument("--order", type=int, help="operator order bound (D-degree)")
    p.add_argument("--degree", type=int, help="operator t-degree bound")

    construct = subs.add_parser("construct", help="build a model from a recipe")
    csubs = construct.add_subparsers(dest="recipe", required=True, parser_class=subparser)

    p = csubs.add_parser("toric", help="one monomial per fan ray")
    p.add_argument("--rays", required=True, help="semicolon-separated integer vectors, e.g. '1,0,0;0,1,0;0,0,1;-1,-1,-1'")
    _add_common(p, _cmd_construct_toric)

    p = csubs.add_parser("ci", help="complete intersection in projective space")
    p.add_argument("--n", type=int, required=True, help="ambient projective dimension N")
    p.add_argument("--degrees", default="", help="comma-separated hypersurface degrees (may be empty)")
    _add_common(p, _cmd_construct_ci)

    p = csubs.add_parser("grassmannian", help="ladder polynomial of G(k, N)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p, _cmd_construct_grassmannian)

    p = csubs.add_parser("grass-ci", help="G(k, N) cut by hyperplane-class factors")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sections", type=int, required=True, help="number of leading factors pinned to 1")
    _add_common(p, _cmd_construct_grass_ci)

    p = csubs.add_parser("weighted", help="hypersurface in weighted projective space")
    p.add_argument("--weights", required=True, help="comma-separated positive weights")
    p.add_argument("--d", type=int, required=True, help="hypersurface degree")
    p.add_argument("--partition", required=True, help="trailing weights summing to d")
    _add_common(p, _cmd_construct_weighted)

    p = subs.add_parser("eliminate", help="solve constraints out of a model file")
    p.add_argument("--model", required=True, help="path to a model JSON file (as printed by construct --format json)")
    p.add_argument("--plan", required=True, help="semicolon-separated INDEX:VARIABLE steps, e.g. '0:X11;4:X42'")
    p.add_argument("--subs", help="semicolon-separated NAME=EXPRESSION substitutions applied afterwards")
    _add_common(p, _cmd_eliminate)

    p = subs.add_parser("identity", help="randomized equality test of two expressions")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, _cmd_identity)

    return parser


# built on a command's first call, not at import, and kept: parse_args
# leaves the parser as it was
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the command is the first argument that is not an option
    args = _parser(next((a for a in argv if not a.startswith("-")), None)).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (lg series ... | head): the output is not
        # wanted, which is no input error; exit as a process killed by
        # SIGPIPE, with stdout on devnull so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, ex.IdentityTestError, ZeroDivisionError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
