"""Command-line surface: eval, arbitrate, sweep, validate, dump-rules.

All numeric output is fixed-point with six fractional digits so repeated
runs produce byte-identical reports.  Exit status is 0 for a completed
operation (a no-winner arbitration is still a valid answer), 1 for bad
files or model violations, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from dataclasses import replace

from .arbitration import arbitrate
from .engine import FuzzyError, FuzzyModel, clamp_to_universe
from .model import Candidate, check_threshold, decision_possibility, validate_model
from .serialization import (
    default_document,
    format_rules_csv,
    format_rules_table,
    load_document,
    read_candidates_csv,
)
from .sweep import PRESET_STEPS, SweepAxis, SweepSpec, figure_preset, format_surface_csv, run_sweep

TRACE_TOP_RULES = 5


class CliError(Exception):
    """Reported to stderr; carries the process exit code."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model", metavar="PATH", help="model document JSON (default: embedded model)"
    )
    parser.add_argument(
        "--threshold", type=float, metavar="T",
        help="admission threshold in [0, 1] (default: model document setting)",
    )
    parser.add_argument(
        "--grid-points", type=int, dest="grid_points", metavar="N",
        help="override the output-grid resolution",
    )
    parser.add_argument(
        "--output", metavar="PATH", help="write the report to PATH instead of stdout"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyspectrum",
        description="Fuzzy spectrum-access decisions for cognitive radio.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one candidate")
    p_eval.add_argument("signal_dbm", type=float)
    p_eval.add_argument("velocity_kmh", type=float)
    p_eval.add_argument("spectrum_ratio", type=float)
    p_eval.add_argument("distance_m", type=float)
    p_eval.add_argument("--trace", action="store_true", help="show memberships and top rules")
    p_eval.add_argument("--format", choices=("human", "csv"), default="human")
    _add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_arb = sub.add_parser("arbitrate", help="rank a CSV batch of candidates")
    p_arb.add_argument("candidates", metavar="CSV", help="candidate batch file")
    p_arb.add_argument("--format", choices=("human", "csv"), default="human")
    _add_common(p_arb)
    p_arb.set_defaults(func=cmd_arbitrate)

    p_sweep = sub.add_parser("sweep", help="emit a decision-surface CSV")
    p_sweep.add_argument("--preset", type=int, choices=(7, 8, 9, 10, 11))
    p_sweep.add_argument("--axis1", metavar="NAME:LO:HI", help="first swept variable")
    p_sweep.add_argument("--axis2", metavar="NAME:LO:HI", help="second swept variable")
    p_sweep.add_argument(
        "--fix", action="append", metavar="NAME=VALUE", default=None,
        help="fixed value for a non-swept variable (give twice)",
    )
    p_sweep.add_argument("--steps", type=int, default=PRESET_STEPS, help="samples per axis (default %(default)s)")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="validate a model document")
    _add_common(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_dump = sub.add_parser("dump-rules", help="list the rule base")
    p_dump.add_argument("--format", choices=("table", "csv"), default="table")
    _add_common(p_dump)
    p_dump.set_defaults(func=cmd_dump_rules)

    return parser


# built once per process: parse_args leaves the parser unchanged, and building
# it costs more than parsing with it
_parser = functools.cache(build_parser)


def _resolve_model(args) -> tuple[FuzzyModel, float]:
    doc = load_document(args.model) if args.model else default_document()
    model, threshold = doc.model, doc.admission_threshold
    # a document's threshold was checked when it was read
    if args.threshold is not None:
        threshold = check_threshold(args.threshold, error=lambda message: CliError(message, code=2))
    if args.grid_points is not None:
        model = replace(model, grid_points=args.grid_points)
    return model, threshold


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_eval(args) -> int:
    model, threshold = _resolve_model(args)
    candidate = Candidate(
        id="eval",
        signal_dbm=args.signal_dbm,
        velocity_kmh=args.velocity_kmh,
        spectrum_ratio=args.spectrum_ratio,
        distance_m=args.distance_m,
    )
    result = decision_possibility(candidate, model, threshold, with_trace=args.trace)

    if args.format == "csv":
        text = "possibility,admitted\n"
        text += f"{result.possibility:.6f},{'true' if result.admitted else 'false'}\n"
        _emit(args, text)
        return 0

    lines = [
        f"possibility: {result.possibility:.6f}",
        f"admitted: {'yes' if result.admitted else 'no'}",
    ]
    if args.trace:
        trace = result.trace
        lines.append("inputs (clamped):")
        for var, x in zip(model.inputs, candidate.inputs()):
            lines.append(f"  {var.name}: {clamp_to_universe(var, x):.6f}")
        lines.append("memberships:")
        for var, degrees in zip(model.inputs, trace.memberships):
            parts = " ".join(
                f"{t.name}={d:.6f}" for t, d in zip(var.terms, degrees)
            )
            lines.append(f"  {var.name}: {parts}")
        lines.append("top rules:")
        ranked = sorted(
            enumerate(trace.firing_strengths, start=1), key=lambda rs: (-rs[1], rs[0])
        )
        for row, strength in ranked[:TRACE_TOP_RULES]:
            rule = model.rules[row - 1]
            antecedents = ", ".join(model.term_names(rule.antecedents))
            consequent = model.output.terms[rule.consequent].name
            lines.append(f"  {row}. {antecedents} -> {consequent}  (strength {strength:.6f})")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_arbitrate(args) -> int:
    model, threshold = _resolve_model(args)
    candidates = read_candidates_csv(args.candidates)
    outcome = arbitrate(candidates, model, threshold)

    if args.format == "csv":
        # an id holding a comma, quote or line break comes out quoted
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(("rank", "id", "possibility", "admitted"))
        writer.writerows((rank, cid, f"{p:.6f}", "true" if p >= outcome.threshold else "false")
                         for rank, (cid, p) in enumerate(outcome.ranking, start=1))
        _emit(args, text.getvalue())
        return 0

    # an id with a character that is not printable is shown as its repr
    shown = [cid if cid.isprintable() else repr(cid) for cid, _ in outcome.ranking]
    lines = ["ranking:"]
    for rank, (cid, (_, possibility)) in enumerate(zip(shown, outcome.ranking), start=1):
        admitted = "yes" if possibility >= outcome.threshold else "no"
        lines.append(f"  {rank}. {cid}  possibility={possibility:.6f}  admitted={admitted}")
    if outcome.winner_id is None:
        lines.append("no candidate admitted")
    else:
        lines.append(f"winner: {shown[0]}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _parse_axis(text: str, steps: int) -> SweepAxis:
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"bad axis '{text}'; expected NAME:LO:HI", code=2)
    name, lo, hi = parts
    try:
        return SweepAxis(name=name, lo=float(lo), hi=float(hi), steps=steps)
    except ValueError as exc:
        raise CliError(f"bad axis '{text}': {exc}", code=2) from exc


def _parse_fix(items) -> dict[str, float]:
    fixed = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise CliError(f"bad --fix '{item}'; expected NAME=VALUE", code=2)
        try:
            fixed[name] = float(value)
        except ValueError as exc:
            raise CliError(f"bad --fix '{item}': {exc}", code=2) from exc
    return fixed


def cmd_sweep(args) -> int:
    model, _ = _resolve_model(args)
    explicit = args.axis1 or args.axis2 or args.fix
    if args.preset is not None and explicit:
        raise CliError("--preset conflicts with --axis1/--axis2/--fix", code=2)

    if args.preset is not None:
        spec = figure_preset(args.preset, steps=args.steps)
    else:
        if not (args.axis1 and args.axis2 and args.fix):
            raise CliError(
                "explicit sweeps need --axis1, --axis2 and two --fix values", code=2
            )
        axis1 = _parse_axis(args.axis1, args.steps)
        axis2 = _parse_axis(args.axis2, args.steps)
        spec = SweepSpec(axis1=axis1, axis2=axis2, fixed=_parse_fix(args.fix))

    result = run_sweep(spec, model)
    _emit(args, format_surface_csv(result))
    return 0


def cmd_validate(args) -> int:
    model, _ = _resolve_model(args)
    report = validate_model(model)
    if report.ok:
        _emit(args, f"{len(model.rules)} rules, complete\n")
        return 0
    _emit(args, "\n".join(report.failures) + "\n")
    return 1


def cmd_dump_rules(args) -> int:
    model, _ = _resolve_model(args)
    if args.format == "csv":
        _emit(args, format_rules_csv(model))
    else:
        _emit(args, format_rules_table(model))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (FuzzyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
