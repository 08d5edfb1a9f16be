"""Output checks for the benchmark ops.

Every check returns a list of problems; an empty list means the output is
correct.  Expected values come from the independent reference in
``tests/oracle.py`` and the golden surfaces in ``tests/data/golden``, never
from the code under test.
"""

from __future__ import annotations

import math

from fuzzyspectrum.serialization import serialize_document
from oracle import oracle_possibility

# Agreement required with the oracle evaluated at the model's own grid.
ORACLE_TOLERANCE = 1e-6
ARBITRATE_HEADER = "rank,id,possibility,admitted"


def check_possibility(model, inputs, possibility: float) -> list[str]:
    want = oracle_possibility(model, list(inputs), n_grid=model.grid_points)
    if abs(possibility - want) <= ORACLE_TOLERANCE:
        return []
    return [f"possibility {possibility!r} at {list(inputs)} differs from oracle {want!r}"]


def check_decision(candidate, result, threshold: float) -> list[str]:
    p = result.possibility
    if result.candidate_id != candidate.id:
        return [f"result for '{result.candidate_id}' answers candidate '{candidate.id}'"]
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
        return [f"candidate '{candidate.id}': possibility {p!r} outside [0, 1]"]
    if result.admitted != (p >= threshold):
        return [f"candidate '{candidate.id}': admitted={result.admitted} at possibility {p!r}"]
    return []


def _cli_problems(output, what: str) -> list[str]:
    code, _, err = output
    if code != 0:
        return [f"{what} exited with {code}: {err.strip()}"]
    return []


def check_arbitrate(output, rows, sampled, model, threshold: float) -> list[str]:
    """Check one ``arbitrate --format csv`` report against its batch.

    rows are the submitted (id, *measurements) tuples; sampled rows are
    also compared with the oracle.
    """
    problems = _cli_problems(output, "arbitrate")
    if problems:
        return problems
    lines = output[1].splitlines()
    if not lines or lines[0] != ARBITRATE_HEADER:
        return [f"arbitrate header is {lines[:1]!r}"]
    ranked = [line.split(",") for line in lines[1:]]
    if any(len(r) != 4 for r in ranked):
        return ["arbitrate row without four fields"]
    if [r[0] for r in ranked] != [str(k) for k in range(1, len(ranked) + 1)]:
        problems.append("ranks are not 1..n in order")
    ids = [r[1] for r in ranked]
    if sorted(ids) != sorted(row[0] for row in rows):
        return problems + ["ranked ids differ from the submitted ids"]
    possibility = {r[1]: float(r[2]) for r in ranked}
    values = [possibility[cid] for cid in ids]
    if any(a < b for a, b in zip(values, values[1:])):
        problems.append("ranking is not in descending possibility order")
    for _, cid, text, admitted in ranked:
        p = float(text)
        # The report rounds to six digits, so a value this close to the
        # threshold may print on either side of it.
        if abs(p - threshold) > ORACLE_TOLERANCE and admitted != ("true" if p >= threshold else "false"):
            problems.append(f"'{cid}': admitted={admitted} at possibility {text}")

    # Rows with identical measurements tie on possibility and distance, so
    # they must come out in ascending id order.
    position = {cid: k for k, cid in enumerate(ids)}
    groups: dict[tuple, list[str]] = {}
    for row in rows:
        groups.setdefault(row[1:], []).append(row[0])
    for members in groups.values():
        if len(members) > 1 and sorted(members, key=position.get) != sorted(members):
            problems.append(f"tie {sorted(members)} not broken by id")

    for row in sampled:
        # Printed values carry six digits, so rounding adds at most 5e-7.
        problems += check_possibility(model, row[1:], possibility[row[0]])
    return problems


def check_same_ranking(output, resubmitted) -> list[str]:
    if output[1] != resubmitted[1] or resubmitted[0] != 0:
        return ["ranking changed when the batch was resubmitted in another row order"]
    return []


def check_surface(output, golden: str, preset: int) -> list[str]:
    problems = _cli_problems(output, f"sweep --preset {preset}")
    if problems or output[1] == golden:
        return problems
    got, want = output[1].splitlines(), golden.splitlines()
    row = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return [f"preset {preset} surface differs from its golden CSV at line {row + 1}"]


def check_model_document(text: str, doc, report) -> list[str]:
    problems = [f"validate_model: {failure}" for failure in report.failures]
    if serialize_document(doc) != text:
        problems.append("serialize_document(parse_document(text)) != text")
    return problems
