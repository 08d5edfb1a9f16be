"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch with plain Python
loops and math.exp: no numpy, no imports from the package under test.
Model parameters are passed in as plain tuples.
"""

import csv
import itertools
import math

DENSE_GRID_POINTS = 10001
MASS_EPSILON = 1e-12  # the least centroid mass the package divides by


def gauss(x, center, sigma):
    d = x - center
    return math.exp(-(d * d) / (2.0 * sigma * sigma))


def reference_infer(inputs, input_vars, output_var, rules, n_grid=DENSE_GRID_POINTS):
    """Straight-line Mamdani inference: clamp, fuzzify, weight * min firing,
    min-implication / max-aggregation on an inclusive grid, trapezoid
    centroid accumulated left to right.

    input_vars: sequence of (lo, hi, ((center, sigma), ...))
    output_var: (lo, hi, ((center, sigma), ...))
    rules: sequence of (antecedent_indices, consequent_index, weight)

    At the model's own grid the result is the package's crisp output bit
    for bit.  Python's max and min keep the first of two equal values,
    numpy the second, and the clip levels and degrees here start from 0.0:
    where the package keeps a -0.0 (a run of -0.0 weights) they read 0.0,
    so compare degree bytes only where no degree is zero.
    """
    points, curves = reference_curves(output_var, n_grid)
    clip = reference_clip_levels(inputs, input_vars, output_var, rules)
    return trapezoid_centroid(points, reference_degrees(clip, curves))


def reference_curves(output_var, n_grid):
    """The n_grid points of the output universe, both ends included, and
    each output term's degree at every point, as lists."""
    out_lo, out_hi, out_terms = output_var
    step = (out_hi - out_lo) / (n_grid - 1)
    points = [out_lo + i * step for i in range(n_grid)]
    points[-1] = out_hi
    return points, [[gauss(x, c, s) for x in points] for c, s in out_terms]


def reference_clip_levels(inputs, input_vars, output_var, rules):
    """One clip level per output term: the max strength among rules with that
    consequent, from 0.0 (max-aggregation regrouped by consequent; selections
    only, so values match the rule-by-rule max bit for bit)."""
    clip = [0.0] * len(output_var[2])
    for (_, consequent, _), s in zip(rules, reference_strengths(inputs, input_vars, rules)):
        if s > clip[consequent]:
            clip[consequent] = s
    return clip


def reference_degrees(clip, curves):
    """The aggregated degree at each grid point: the max, from 0.0, over the
    output terms of min(the term's curve value, its clip level)."""
    clipped = ([level if y > level else y for y in curve] for curve, level in zip(curves, clip))
    return list(map(max, itertools.repeat(0.0), *clipped))


def reference_strengths(inputs, input_vars, rules):
    """Clamp and fuzzify the inputs, then fire each rule: its weight times
    the min of its antecedent degrees.  Arguments as for reference_infer."""
    # clamp and fuzzify
    memberships = []
    for x, (lo, hi, terms) in zip(inputs, input_vars):
        xc = min(max(float(x), lo), hi)
        memberships.append([gauss(xc, c, s) for c, s in terms])

    # firing strengths
    strengths = []
    for antecedents, _, weight in rules:
        degree = memberships[0][antecedents[0]]
        for v in range(1, len(antecedents)):
            d = memberships[v][antecedents[v]]
            if d < degree:
                degree = d
        strengths.append(weight * degree)
    return strengths


def trapezoid_centroid(points, degrees):
    """Centroid of a sampled curve with trapezoid weights, each sum
    accumulated left to right one point at a time; a lone point weighs 1.
    ZeroDivisionError where the mass is below MASS_EPSILON."""
    num, den = trapezoid_sums(points, degrees)
    if den < MASS_EPSILON:
        raise ZeroDivisionError(f"mass {den} below {MASS_EPSILON}")
    return num / den


def trapezoid_sums(points, degrees):
    """The centroid's moment and mass: sums of x * (y * w) and y * w over
    the points, each accumulated left to right one point at a time."""
    n = len(points)
    # -0.0 is the additive identity (0.0 + -0.0 is 0.0), so a sum of one
    # -0.0 term keeps its sign, as a running sum from the first term does
    num = -0.0
    den = -0.0
    for i, (x, y) in enumerate(zip(points, degrees)):
        if n == 1:
            w = 1.0
        elif i == 0:
            w = (points[1] - points[0]) / 2.0
        elif i == n - 1:
            w = (points[-1] - points[-2]) / 2.0
        else:
            w = (points[i + 1] - points[i - 1]) / 2.0
        yw = y * w
        num += x * yw
        den += yw
    return num, den


def model_params(model):
    """Flatten a package FuzzyModel into the plain tuples reference_infer
    expects (parameters only; none of the package's inference code runs)."""
    input_vars = tuple(
        (v.lo, v.hi, tuple((t.center, t.sigma) for t in v.terms)) for v in model.inputs
    )
    output_var = (
        model.output.lo,
        model.output.hi,
        tuple((t.center, t.sigma) for t in model.output.terms),
    )
    return input_vars, output_var, model.rules


def oracle_possibility(model, inputs, n_grid=DENSE_GRID_POINTS):
    input_vars, output_var, rules = model_params(model)
    return reference_infer(inputs, input_vars, output_var, rules, n_grid=n_grid)


def reference_validate_model(input_terms, rules):
    """The rule-base contract checked one rule at a time: the failures
    validate_model reports, in its order.

    input_terms: per input variable, its term names in order
    rules: sequence of (antecedent_indices, consequent_index, weight)
    """
    failures = []
    expected = 1
    for names in input_terms:
        expected *= len(names)
    if len(rules) != expected:
        failures.append(f"rule count {len(rules)} != expected {expected}")

    def combo_names(combo):
        return "(" + ", ".join(names[i] for names, i in zip(input_terms, combo)) + ")"

    seen = {}
    for r, (antecedents, _, weight) in enumerate(rules):
        antecedents = tuple(antecedents)
        if antecedents in seen:
            failures.append(
                f"rule {r + 1}: duplicate antecedent combination "
                f"{combo_names(antecedents)} (first at rule {seen[antecedents] + 1})"
            )
        else:
            seen[antecedents] = r
        if weight != 1.0:
            failures.append(f"rule {r + 1}: weight {weight} deviates from 1")
    for combo in itertools.product(*(range(len(names)) for names in input_terms)):
        if combo not in seen:
            failures.append(f"missing antecedent combination {combo_names(combo)}")
    return failures


def riemann_centroid(fn, lo, hi, n):
    """Midpoint Riemann-sum centroid of a continuous curve on [lo, hi]."""
    h = (hi - lo) / n
    num = 0.0
    den = 0.0
    for i in range(n):
        x = lo + (i + 0.5) * h
        y = fn(x)
        num += x * y
        den += y
    return num / den


CANDIDATE_HEADER = ("id", "signal_dbm", "velocity_kmh", "spectrum_ratio", "distance_m")


def _quoted(text):
    # an id or path in single quotes, or as its repr if it is not printable
    text = str(text)
    return f"'{text}'" if text.isprintable() else repr(text)


def reference_read_candidates(path, error=ValueError):
    """Read a candidates CSV one record and one field at a time: a list of
    (id, signal_dbm, velocity_kmh, spectrum_ratio, distance_m) tuples, or
    error(message) naming the first bad record by the line it starts on.
    Records are taken as csv.reader yields them, so a quoted line break
    stays in its record and moves the start of every later record down."""
    rows = []
    start = 1
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                rows.append((start, row))
                start = reader.line_num + 1
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read candidates CSV {_quoted(path)}: {exc}") from exc
    except csv.Error as exc:
        raise error(f"line {start}: {exc}") from exc

    if not rows:
        raise error(f"empty file; expected header {','.join(CANDIDATE_HEADER)}")
    header = tuple(rows[0][1])
    if header != CANDIDATE_HEADER:
        raise error(f"expected header {','.join(CANDIDATE_HEADER)}, got {','.join(header)}")

    candidates = []
    for lineno, row in rows[1:]:
        if not row:
            continue
        if len(row) != len(CANDIDATE_HEADER):
            raise error(f"line {lineno}: expected {len(CANDIDATE_HEADER)} fields, got {len(row)}")
        cid = row[0]
        values = []
        for column, cell in zip(CANDIDATE_HEADER[1:], row[1:]):
            try:
                values.append(float(cell))
            except ValueError as exc:
                raise error(f"line {lineno}: bad {column} value {cell!r}") from exc
        try:
            candidates.append(reference_candidate(cid, values))
        except ValueError as exc:
            raise error(f"line {lineno}: {exc}") from exc
    return candidates


def reference_candidate(cid, values):
    """One candidate's checks, in order: a non-empty id, every field finite
    in header order, then spectrum_ratio, velocity_kmh and distance_m each
    at least 0.  Returns (cid, *values)."""
    if not cid:
        raise ValueError("candidate id must be non-empty")
    shown = _quoted(cid)
    fields = dict(zip(CANDIDATE_HEADER[1:], values))
    for field, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"candidate {shown}: {field} must be finite")
    for field in ("spectrum_ratio", "velocity_kmh", "distance_m"):
        if fields[field] < 0:
            raise ValueError(f"candidate {shown}: {field} must be >= 0")
    return (cid, *values)
