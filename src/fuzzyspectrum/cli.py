"""Command-line surface: eval, arbitrate, sweep, validate, dump-rules.

All numeric output is fixed-point with six fractional digits so repeated
runs produce byte-identical reports.  Exit status is 0 for a completed
operation (a no-winner arbitration is still a valid answer), 1 for bad
files or model violations, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from .arbitration import arbitrate
from .engine import FuzzyError, FuzzyModel, _quoted, _shown_name, check_threshold, clamp_to_universe, infer
from .model import INPUT_ORDER, Candidate, decision_possibility, validate_model
from .serialization import ModelDocument, default_document, load_document, read_candidates_csv
from .sweep import PRESET_STEPS, SweepAxis, SweepSpec, figure_preset, format_surface_csv, run_sweep

TRACE_TOP_RULES = 5


class CliError(Exception):
    """Reported to stderr; carries the process exit code."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


# options that more than one command takes; each command adds the ones its cmd_* reads
_OPTIONS = {
    "--model": dict(metavar="PATH", help="model document JSON (default: embedded model)"),
    "--threshold": dict(type=float, metavar="T", help="admission threshold in [0, 1] (default: model document setting)"),
    "--grid-points": dict(type=int, metavar="N", help="override the output-grid resolution"),
    "--output": dict(metavar="PATH", help="write the report to PATH instead of stdout"),
}


def _add_options(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_OPTIONS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyspectrum",
        description="Fuzzy spectrum-access decisions for cognitive radio.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one candidate")
    for name in INPUT_ORDER:
        p_eval.add_argument(name, type=float)
    p_eval.add_argument("--trace", action="store_true", help="show memberships and top rules")
    p_eval.add_argument("--format", choices=("human", "csv"), default="human")
    _add_options(p_eval, "--model", "--threshold", "--grid-points", "--output")
    p_eval.set_defaults(func=cmd_eval)

    p_arb = sub.add_parser("arbitrate", help="rank a CSV batch of candidates")
    p_arb.add_argument("candidates", metavar="CSV", help="candidate batch file")
    p_arb.add_argument("--format", choices=("human", "csv"), default="human")
    _add_options(p_arb, "--model", "--threshold", "--grid-points", "--output")
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
    _add_options(p_sweep, "--model", "--grid-points", "--output")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="validate a model document")
    _add_options(p_val, "--model", "--output")
    p_val.set_defaults(func=cmd_validate)

    p_dump = sub.add_parser("dump-rules", help="list the rule base")
    p_dump.add_argument("--format", choices=("table", "csv"), default="table")
    _add_options(p_dump, "--model", "--output")
    p_dump.set_defaults(func=cmd_dump_rules)

    return parser


# built once per process: parse_args leaves the parser unchanged, and building
# it costs more than parsing with it
_parser = functools.cache(build_parser)


def _document(args) -> ModelDocument:
    return load_document(args.model) if args.model else default_document()


def _gridded(args, model: FuzzyModel) -> FuzzyModel:
    """model at the --grid-points resolution, when one is given."""
    if args.grid_points is None:
        return model
    return FuzzyModel(model.inputs, model.output, model.rules, args.grid_points)


def _resolve_candidate_model(args) -> tuple[FuzzyModel, float]:
    """The model and threshold of a command that feeds the model a
    Candidate's fields by position: its inputs must be INPUT_ORDER."""
    doc = _document(args)
    # a document's threshold was checked when it was read
    threshold = doc.admission_threshold
    if args.threshold is not None:
        threshold = check_threshold(args.threshold, error=lambda message: CliError(message, code=2))
    model = _gridded(args, doc.model)
    names = tuple(var.name for var in model.inputs)
    if names != INPUT_ORDER:
        got = ", ".join(map(_shown_name, names))
        raise CliError(f"model inputs must be {', '.join(INPUT_ORDER)} in that order, got {got}")
    return model, threshold


def _emit(args, text: str) -> None:
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except UnicodeEncodeError as exc:  # a name that the output's encoding cannot hold
        raise CliError(str(exc)) from exc


# finds a character that makes a csv field quoted
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _csv_fields(fields: list[str]) -> list[str]:
    """fields as csv.writer writes them in a record ending in "\r\n": a field
    holding a comma, a double quote, a carriage return or a line feed is
    wrapped in double quotes, with each double quote doubled."""
    if not _NEEDS_QUOTES("".join(fields)):
        return fields
    return ['"' + field.replace('"', '""') + '"' if _NEEDS_QUOTES(field) else field for field in fields]


def _rule_line(model: FuzzyModel, r: int) -> str:
    """The rule at index r as "r + 1. antecedent terms -> consequent term"."""
    antecedents, consequent, _ = model.rules[r]
    names = map(_shown_name, model.term_names(antecedents))
    return f"{r + 1}. {', '.join(names)} -> {_shown_name(model.output.terms[consequent].name)}"


def _rules_table(model: FuzzyModel) -> str:
    """Rules as numbered text lines, 1-based, in rule-base order."""
    return "\n".join(_rule_line(model, r) for r in range(len(model.rules))) + "\n"


def _rules_csv(model: FuzzyModel) -> str:
    """Rules as CSV with a row column, antecedent/consequent term names,
    and the weight."""
    records = [("row", *(v.name for v in model.inputs), model.output.name, "weight")]
    records += [
        (r, *model.term_names(antecedents), model.output.terms[consequent].name, f"{weight:.6f}")
        for r, (antecedents, consequent, weight) in enumerate(model.rules, start=1)
    ]
    return "".join([",".join(_csv_fields(list(map(str, record)))) + "\n" for record in records])


def cmd_eval(args) -> int:
    model, threshold = _resolve_candidate_model(args)
    candidate = Candidate("eval", *(getattr(args, name) for name in INPUT_ORDER))
    result = decision_possibility(candidate, model, threshold)

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
        trace = infer(model, candidate.inputs())
        # the input names are INPUT_ORDER's; only term names can need showing
        lines.append("inputs (clamped):")
        for var, x in zip(model.inputs, candidate.inputs()):
            lines.append(f"  {var.name}: {clamp_to_universe(var, x):.6f}")
        lines.append("memberships:")
        for var, degrees in zip(model.inputs, trace.memberships):
            parts = " ".join(
                f"{_shown_name(t.name)}={d:.6f}" for t, d in zip(var.terms, degrees)
            )
            lines.append(f"  {var.name}: {parts}")
        lines.append("top rules:")
        ranked = sorted(enumerate(trace.firing_strengths), key=lambda rs: (-rs[1], rs[0]))
        for r, strength in ranked[:TRACE_TOP_RULES]:
            lines.append(f"  {_rule_line(model, r)}  (strength {strength:.6f})")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_arbitrate(args) -> int:
    model, threshold = _resolve_candidate_model(args)
    candidates = read_candidates_csv(args.candidates)
    outcome = arbitrate(candidates, model, threshold)

    if args.format == "csv":
        t, ids = outcome.threshold, _csv_fields([cid for cid, _ in outcome.ranking])
        rows = [f"{rank},{cid},{p:.6f},{'true' if p >= t else 'false'}\n"
                for rank, (cid, (_, p)) in enumerate(zip(ids, outcome.ranking), start=1)]
        _emit(args, "".join(["rank,id,possibility,admitted\n", *rows]))
        return 0

    shown = [_shown_name(cid) for cid, _ in outcome.ranking]
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
        raise CliError(f"bad axis {_quoted(text)}; expected NAME:LO:HI", code=2)
    name, lo, hi = parts
    try:
        lo, hi = float(lo), float(hi)
    except ValueError as exc:
        raise CliError(f"bad axis {_quoted(text)}: {exc}", code=2) from exc
    return SweepAxis(name=name, lo=lo, hi=hi, steps=steps)


def _parse_fix(items) -> list[tuple[str, float]]:
    # pairs, not a dict, so that SweepSpec sees a variable fixed twice
    fixed = []
    for item in items:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise CliError(f"bad --fix {_quoted(item)}; expected NAME=VALUE", code=2)
        try:
            fixed.append((name, float(value)))
        except ValueError as exc:
            raise CliError(f"bad --fix {_quoted(item)}: {exc}", code=2) from exc
    return fixed


def cmd_sweep(args) -> int:
    model = _gridded(args, _document(args).model)
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
    model = _document(args).model
    report = validate_model(model)
    if not report.failures:
        _emit(args, f"{len(model.rules)} rules, complete\n")
        return 0
    _emit(args, "\n".join(report.failures) + "\n")
    return 1


def cmd_dump_rules(args) -> int:
    model = _document(args).model
    _emit(args, _rules_csv(model) if args.format == "csv" else _rules_table(model))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (FuzzyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
