"""Generic Mamdani fuzzy-inference core.

Gaussian fuzzification, weighted min rule firing, min-implication with max
aggregation over a sampled output universe, and centroid defuzzification with
trapezoidal weights.  Models are immutable plain data and every operation is
a pure function of its arguments, so one model can serve any number of
concurrent inferences.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "FuzzyError",
    "InvalidInputError",
    "ModelIntegrityError",
    "NoRuleFiredError",
    "GaussianTerm",
    "FuzzyVariable",
    "FuzzyModel",
    "InferenceTrace",
    "gaussian_membership",
    "clamp_to_universe",
    "fuzzify",
    "aggregate",
    "defuzzify_centroid",
    "infer",
]


class FuzzyError(ValueError):
    """Base class for all errors raised by this package: a value it rejects."""


class InvalidInputError(FuzzyError):
    """A crisp input, candidate field, threshold, firing strength or curve was rejected."""


class ModelIntegrityError(FuzzyError):
    """A term, variable, grid or rule is malformed, or refers to a term or variable that does not exist."""


class NoRuleFiredError(FuzzyError):
    """Aggregated output mass fell below the defuzzification threshold."""


# Total trapezoidal mass below which defuzzify_centroid refuses to divide.
MASS_EPSILON = 1e-12

# Largest output grid a model may sample, so an accepted model's arrays stay small.
MAX_GRID_POINTS = 100001

# Largest output terms x grid points, the size of the term curves a model
# samples: any output of up to ten terms at the largest grid.
_MAX_CURVE_POINTS = 10 * MAX_GRID_POINTS

# Cap on the elements of the largest intermediate of one chunk of the kernel:
# rows x rules x inputs (or another per-row rule-base array) in the firing
# stage, (output terms + 1) x grid rows x clip vectors in the curve stage.
# A batch is scored in blocks of _Compiled.block_rows rows.
CHUNK_ELEMENTS = 1 << 16


def _shown_name(name) -> str:
    # a name as the text reports show it: as it is, or as its repr if a
    # character in it is not printable, so that a line break cannot split a line
    text = str(name)
    return text if text.isprintable() else repr(text)


def _quoted(name) -> str:
    # a name, key or id as messages quote it: in single quotes, or as its
    # repr (which brings its own) if a character in it is not printable, so
    # that a line break cannot split the message
    text = str(name)
    return f"'{text}'" if text.isprintable() else repr(text)


def _shown_value(value, show=format) -> str:
    # a value as messages show it, by show (format, as an f-string does, or
    # repr), or by the size of an int with more digits than str() converts,
    # for which show raises ValueError, in the value or held by it
    try:
        return show(value)
    except ValueError:
        held = "an" if isinstance(value, int) else f"a {type(value).__name__} holding an"
        return f"{held} integer of more than {sys.get_int_max_str_digits()} digits"


@dataclass(frozen=True, init=False)
class GaussianTerm:
    """One linguistic term shaped as a Gaussian bump.

    Attributes:
        name: term label, e.g. "Low".
        center: location of the peak, in the owning variable's units.
        sigma: positive width parameter, same units.
    """

    name: str
    center: float
    sigma: float

    def __init__(self, name: str, center: float, sigma: float):
        # written by hand so that each field is converted and set once
        try:
            center, sigma = float(center), float(sigma)
        except (TypeError, ValueError, OverflowError):  # walked for the value float() rejects
            center, sigma = (_as_float(x, f"term {_quoted(name)}: {k}", ModelIntegrityError) for k, x in zip(("center", "sigma"), (center, sigma)))
        vars(self).update(name=name, center=center, sigma=sigma)
        if not self.name:
            raise ModelIntegrityError("term name must be non-empty")
        if not math.isfinite(self.center):
            raise ModelIntegrityError(f"term {_quoted(self.name)}: center must be finite")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ModelIntegrityError(f"term {_quoted(self.name)}: sigma must be positive, got {self.sigma}")
        # the kernel divides by 2.0 * sigma * sigma, which must neither
        # underflow to 0.0 nor overflow to inf
        spread = 2.0 * self.sigma * self.sigma
        if not (0.0 < spread < math.inf):
            raise ModelIntegrityError(
                f"term {_quoted(self.name)}: sigma {self.sigma} out of range, "
                f"2*sigma*sigma must be positive and finite, got {spread}"
            )


@dataclass(frozen=True, init=False)
class FuzzyVariable:
    """A linguistic variable over a bounded universe of discourse.

    Terms are kept in ascending-center order; fuzzify returns degrees in the
    same order.
    """

    name: str
    lo: float
    hi: float
    terms: tuple[GaussianTerm, ...]

    def __init__(self, name: str, lo: float, hi: float, terms: Sequence[GaussianTerm]):
        # written by hand so that each field is converted and set once
        try:
            lo, hi = float(lo), float(hi)
        except (TypeError, ValueError, OverflowError):  # walked for the value float() rejects
            lo, hi = (_as_float(x, f"variable {_quoted(name)}: {k}", ModelIntegrityError) for k, x in zip(("lo", "hi"), (lo, hi)))
        vars(self).update(name=name, lo=lo, hi=hi, terms=tuple(terms))
        if not self.name:
            raise ModelIntegrityError("variable name must be non-empty")
        if not (-math.inf < self.lo < self.hi < math.inf):
            raise ModelIntegrityError(f"variable {_quoted(self.name)}: need finite lo < hi, got [{self.lo}, {self.hi}]")
        if not self.terms:
            raise ModelIntegrityError(f"variable {_quoted(self.name)}: needs at least one term")
        object.__setattr__(self, "_term_indices", {t.name: i for i, t in enumerate(self.terms)})
        if len(self._term_indices) != len(self.terms):
            raise ModelIntegrityError(f"variable {_quoted(self.name)}: duplicate term names")
        for t in self.terms:
            if not (self.lo <= t.center <= self.hi):
                raise ModelIntegrityError(
                    f"variable {_quoted(self.name)}: term {_quoted(t.name)} center {t.center} "
                    f"outside universe [{self.lo}, {self.hi}]"
                )
        centers = [t.center for t in self.terms]
        if any(a >= b for a, b in zip(centers, centers[1:])):
            raise ModelIntegrityError(f"variable {_quoted(self.name)}: term centers must be strictly increasing")

    def term_index(self, name: str) -> int:
        try:
            return self._term_indices[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise ModelIntegrityError(f"variable {_quoted(self.name)} has no term named {_quoted(name)}") from None


@dataclass(frozen=True, init=False)
class FuzzyModel:
    """Input variables, one output variable, a rule base, and grid settings.

    Each rule is an (antecedents, consequent, weight) triple: one term index
    per input variable, in input order, the index of the output term it
    concludes, and a firing weight in [0, 1].  grid_points controls the
    output-universe discretization used for aggregation and centroid
    defuzzification (endpoints inclusive).
    """

    inputs: tuple[FuzzyVariable, ...]
    output: FuzzyVariable
    rules: tuple[tuple[tuple[int, ...], int, float], ...]
    grid_points: int

    def __init__(self, inputs: Sequence[FuzzyVariable], output: FuzzyVariable, rules: Sequence[tuple], grid_points: int = 1001):
        # written by hand so that each field is converted and set once
        inputs = tuple(inputs)
        if not inputs:
            raise ModelIntegrityError("model needs at least one input variable")
        vars(self).update(inputs=inputs, output=output, grid_points=_as_count(grid_points, "grid_points", ModelIntegrityError))
        if self.grid_points < 2:
            raise ModelIntegrityError(f"grid_points must be >= 2, got {_shown_value(self.grid_points)}")
        if self.grid_points > MAX_GRID_POINTS:
            raise ModelIntegrityError(f"grid_points must be <= {MAX_GRID_POINTS}, got {_shown_value(self.grid_points)}")
        names = [v.name for v in self.inputs] + [output.name]
        if len(set(names)) != len(names):
            raise ModelIntegrityError("variable names must be unique across the model")
        # the admission test: every rule a triple of n_inputs antecedents, a
        # consequent and a weight, every index an integer in range and every
        # weight a number in [0, 1].  The indices are read flat, column by
        # column, into one (inputs + 1, rules) table (numpy discovers a nested
        # sequence's shape far more slowly), which must read back as given; a
        # rule base that fails the test is walked for its first faulty rule
        n_in = len(self.inputs)
        sizes = np.array([len(v.terms) for v in (*self.inputs, output)], np.uintp)[:, None]
        try:
            antecedents, consequents, weights = tuple(zip(*rules, strict=True)) or ((), (), ())
            n = len(consequents)
            flat = [*itertools.chain.from_iterable(zip(*antecedents, strict=True)), *consequents]
            table = np.fromiter(flat, np.intp, len(flat)).reshape(n_in + 1, n)
            weights, columns = np.fromiter(weights, float, n), table.tolist()
            # unsigned, a negative index reads as one too large
            if [*itertools.chain(*columns)] != flat or (table.view(np.uintp) >= sizes).any():
                raise ValueError
            if not (weights.min(initial=0.0) >= 0.0 and weights.max(initial=1.0) <= 1.0):
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            for r, rule in enumerate(rules):
                _check_rule(self, r, rule)
            raise  # only if numpy and int() or float() disagree on a value
        vars(self)["rules"] = tuple(zip(zip(*columns[:n_in]), columns[n_in], weights.tolist()))
        # checked before the grid and the term curves are allocated
        if len(output.terms) * self.grid_points > _MAX_CURVE_POINTS:
            raise ModelIntegrityError(
                f"output terms x grid_points must be <= {_MAX_CURVE_POINTS}, "
                f"got {len(output.terms)} x {self.grid_points}"
            )
        _check_defuzzifiable(output.lo, output.hi, f"variable {_quoted(output.name)}: output universe")
        # a Gaussian exponent, squared distance over 2*sigma*sigma as the
        # kernel computes it, is largest at the farther bound of the universe
        # and must not overflow there
        for var in (*self.inputs, output):
            for t in var.terms:
                d = max(t.center - var.lo, var.hi - t.center)
                if not math.isfinite(d * d / (2.0 * t.sigma * t.sigma)):
                    raise ModelIntegrityError(
                        f"variable {_quoted(var.name)}: term {_quoted(t.name)} exponent overflows at the universe's bounds, "
                        f"d*d / (2*sigma*sigma) must be finite, got d = {d}, sigma = {t.sigma}"
                    )
        object.__setattr__(self, "_compiled", _Compiled(self, table, columns[n_in], weights))

    def term_names(self, antecedents: Sequence[int]) -> list[str]:
        """The input term names a rule's antecedent indices select, in input order."""
        return [var.terms[idx].name for var, idx in zip(self.inputs, antecedents)]


def _check_defuzzifiable(lo: float, hi: float, what: str, error=ModelIntegrityError) -> None:
    """Raise error unless a centroid over points in [lo, hi] with
    degrees in [0, 1] keeps its sums finite."""
    # the moment sums degree x weight x point, at most (hi - lo) * max(|lo|,
    # |hi|), which must stay finite with room for rounding; the mass and each
    # weight are at most hi - lo
    if not math.isfinite(4.0 * (hi - lo) * max(abs(lo), abs(hi))):
        raise error(f"{what} [{lo}, {hi}] too wide to defuzzify, (hi - lo) * max(|lo|, |hi|) must be finite")


def _check_rule(model: FuzzyModel, r: int, rule: Sequence) -> None:
    """Raise the error naming the first fault of rule r + 1, if it has one; an
    index is read as int() reads it, and out of range unless equal to it."""
    where = f"rule {r + 1}"
    if _count(rule) != "3":
        raise ModelIntegrityError(f"{where}: expected (antecedents, consequent, weight), got {_count(rule, ' fields')}")
    antecedents, consequent, weight = rule
    if _count(antecedents) != str(len(model.inputs)):
        raise ModelIntegrityError(f"{where}: expected {len(model.inputs)} antecedents, got {_count(antecedents)}")
    for var, idx in zip(model.inputs, antecedents):
        if _as_int(idx) not in range(len(var.terms)):
            raise ModelIntegrityError(f"{where}: antecedent index {_shown_value(idx)} out of range for variable {_quoted(var.name)}")
    if _as_int(consequent) not in range(len(model.output.terms)):
        raise ModelIntegrityError(f"{where}: consequent index {_shown_value(consequent)} out of range")
    check_threshold(weight, f"{where}: rule weight", ModelIntegrityError)


def _count(x, unit: str = "") -> str:
    """What a count check's message says it got: the length of x and unit, or
    the type of an x that has no length."""
    try:
        return f"{len(x)}{unit}"
    except TypeError:
        return type(x).__name__


def _as_int(value) -> int | None:
    """value as int() reads it, or None unless it reads and equals that int."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return n if n == value else None


def _as_count(value, what: str, error) -> int:
    """value as an int, read by _as_int, or error(message) naming what if _as_int rejects it."""
    n = _as_int(value)
    if n is None:
        raise error(f"{what} must be an integer, got {_shown_value(value)}")
    return n


@dataclass(frozen=True, eq=False)
class InferenceTrace:
    """Every intermediate of one inference, for diagnostics and tests.

    aggregated_curve is an (grid_points, 2) array of (output point, degree)
    pairs; treat all arrays as read-only.
    """

    memberships: tuple[tuple[float, ...], ...]
    firing_strengths: tuple[float, ...]
    aggregated_curve: np.ndarray
    crisp_output: float


def gaussian_membership(x: float, term: GaussianTerm) -> float:
    """Degree of x in the term: exp(-(x - center)^2 / (2 sigma^2))."""
    d = _as_float(x, "x") - term.center
    return math.exp(-(d * d) / (2.0 * term.sigma * term.sigma))


def clamp_to_universe(var: FuzzyVariable, x: float) -> float:
    """Clamp x into [var.lo, var.hi]; out-of-range measurements are mapped
    to the nearest modeled value rather than rejected."""
    return min(max(_as_float(x, "x"), var.lo), var.hi)


def _as_float(x, what: str, error=InvalidInputError) -> float:
    """x as float() reads it, an int too large for a float as the inf of its
    sign (as json reads 1e400), or the error naming what if float() rejects x."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf
    except (TypeError, ValueError) as exc:
        raise error(f"{what} must be a real number, got {_shown_value(x, repr)}") from exc


def check_threshold(threshold: float, name: str = "threshold", error=InvalidInputError) -> float:
    """threshold as a float; raises error(message) naming it unless it lies in [0, 1]."""
    t = _as_float(threshold, name, error)
    if not (0.0 <= t <= 1.0):
        raise error(f"{name} must be in [0, 1], got {_shown_value(threshold)}")
    return t


def _as_float_array(values) -> np.ndarray:
    """values as np.array reads them into a new float array, an int too large
    for a float as the inf of its sign, as _as_float reads one; TypeError or
    ValueError if they are not numbers of one shape."""
    try:
        return np.array(values, dtype=float)
    except OverflowError:  # walked element by element
        as_floats = np.frompyfunc(lambda x: _as_float(x, "value"), 1, 1)
        return as_floats(np.array(values, dtype=object)).astype(float)


def _as_finite_float(x, what: str) -> float:
    xf = _as_float(x, what)
    if not math.isfinite(xf):
        raise InvalidInputError(f"{what} must be finite, got {xf}")
    return xf


def fuzzify(var: FuzzyVariable, x: float) -> np.ndarray:
    """Degrees of x in each of var's terms, in term order."""
    xf = _as_finite_float(x, f"input for {_quoted(var.name)}")
    return np.array([gaussian_membership(xf, t) for t in var.terms])


class _Compiled:
    """A model's plain arrays, built once when the model is constructed from
    its admitted (inputs + 1, rules) table of antecedents and consequent, the
    consequents as a list and the rule weights as an array.

    Each input's term parameters are kept once, as Python floats in
    fuzzifiers, padded to the widest variable with copies of its first term,
    whose exponent FuzzyModel checks; no rule indexes the padding.
    The rule arrays hold the rules sorted by consequent, stably, so that the
    rules concluding each output term are one run and the term's clip level
    one max over it.
    """

    def __init__(self, model: FuzzyModel, table: np.ndarray, consequents: list[int], weights: np.ndarray):
        n_in, output = len(model.inputs), model.output
        width = max(len(v.terms) for v in model.inputs)
        # per input: (lo, hi, [(center, 2*sigma*sigma) per term and padding slot])
        self.fuzzifiers = tuple(
            (v.lo, v.hi, [(t.center, 2.0 * t.sigma * t.sigma) for t in v.terms + v.terms[:1] * (width - len(v.terms))])
            for v in model.inputs
        )
        # the rules concluding each output term, in rule order; joined, they
        # are a stable sort by consequent, rule order[p] at position p of the
        # sorted layout, which pages in no numpy sort code (that would add
        # ~0.14 MB to the peak RSS of a process that only decides)
        runs = [[] for _ in output.terms]
        for r, k in enumerate(consequents):
            runs[k].append(r)
        self.order = np.array([r for run in runs for r in run], np.intp)
        # (inputs, rules) antecedent positions in a row's flat memberships
        self.antecedents = table[:n_in].take(self.order, axis=1)
        self.antecedents += np.arange(n_in)[:, None] * width
        self.weights = weights[self.order]
        # the output terms that some rule concludes, and the first sorted
        # rule of each
        self.concluded = np.array([k for k, run in enumerate(runs) if run], np.intp)
        self.starts = np.array([0, *itertools.accumulate(len(run) for run in runs if run)][:-1], np.intp)
        self.grid = np.linspace(output.lo, output.hi, model.grid_points)
        self.w = _trapezoid_weights(self.grid)
        # (output terms, grid points), bit for bit gaussian_membership at
        # each grid point: squaring is x * x, dividing by the negated spread
        # rounds as negating the quotient does, and the exp is
        # _memberships' complex one, the C library's, taken in place over
        # one reused complex row whose imaginary part stays 0.0, so that no
        # temporary spans all the terms
        self.term_curves = np.empty((len(output.terms), model.grid_points))
        row = np.zeros(model.grid_points, complex)
        for t, curve in zip(output.terms, self.term_curves):
            np.subtract(self.grid, t.center, out=curve)
            np.multiply(curve, curve, out=curve)
            np.divide(curve, -2.0 * t.sigma * t.sigma, out=row.real)
            np.exp(row, out=row)
            np.copyto(curve, row.real)
        # rows per chunk of the firing stage: its largest intermediate per row
        # is rules x inputs, inputs x terms or the clip levels
        row_elements = max(self.antecedents.size, n_in * width, len(output.terms))
        self.fire_rows = max(1, CHUNK_ELEMENTS // row_elements)
        # rows per block of a batch: its distinct clip vectors and one grid
        # row of their curves, (output terms + 1) x rows, fit in
        # CHUNK_ELEMENTS; the 16 keeps 4096 rows for up to 15 output terms
        self.block_rows = max(1, CHUNK_ELEMENTS // max(16, len(output.terms) + 1))


def _trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Trapezoid weights of points, the first positive and every later one
    negated, so that np.subtract.reduce of weighted terms adds them."""
    if len(points) == 1:
        return np.ones(1)
    # half the span of each point's neighbours, an end point its own neighbour
    w = np.empty(len(points))
    np.subtract(points[2:], points[:-2], out=w[1:-1])
    w[0], w[-1] = points[1] - points[0], points[-1] - points[-2]
    w /= -2.0
    w[0] = -w[0]
    return w


def _row_degrees(c: _Compiled, strengths: np.ndarray) -> np.ndarray:
    """Aggregated degrees (grid points,) of one row's strengths (rules,) in
    the sorted layout: the IEEE operations of a batch's _fire and
    _centroids on one row, in their order."""
    clip = np.zeros(len(c.term_curves))
    clip[c.concluded] = np.maximum.reduceat(strengths, c.starts)
    # one broadcast over the terms makes two numpy calls where the term loop
    # makes five, which shows on every decision
    return np.maximum.reduce(np.minimum(clip[:, None], c.term_curves), axis=0)


def _row_centroid(mass: np.ndarray, points: np.ndarray, w: np.ndarray) -> float:
    """Centroid of one curve's (grid points,) degrees, summed strictly left
    to right."""
    # numpy sums add.reduce pairwise but subtract.reduce with one accumulator
    # from the first term on; S - (-t) is S + t, and a negated weight negates
    # the product exactly, so each sum adds the terms in grid order
    terms = mass * w
    total = float(np.subtract.reduce(terms))
    if total < MASS_EPSILON:
        raise NoRuleFiredError(f"total output mass {total} below {MASS_EPSILON}; no rule fired")
    terms *= points
    return float(np.subtract.reduce(terms)) / total


def _memberships(x: np.ndarray, lo: float, hi: float, terms: list) -> np.ndarray:
    """Memberships (n, terms) of finite values x of one input, clamped into
    [lo, hi] first, from that input's entry of fuzzifiers."""
    centers, two_sigma_sq = np.array(terms).T
    # the same clamp as np.clip, in two cheaper calls
    d = np.minimum(np.maximum(x, lo), hi)[..., None] - centers
    # numpy's complex exp calls the C library's exp, as math.exp does, so it
    # equals gaussian_membership bit for bit (its real exp may take a SIMD
    # path that differs in the last bit); the copy lets the complex go
    return np.exp(-(d**2) / two_sigma_sq, dtype=complex).real.copy()


def _membership_table(c: _Compiled, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Memberships of each input's distinct values in rows x, as one
    (distinct values, terms) table, and each row's (n_inputs,) entries in it."""
    # exp, the costly step, runs once per distinct value of each input;
    # merging -0.0 with 0.0 is harmless, as both give the same exponents
    values, inverses = zip(*(np.unique(column, return_inverse=True) for column in x.T))
    table = np.concatenate([_memberships(v, *f) for v, f in zip(values, c.fuzzifiers)])
    index = np.column_stack(inverses)
    index += np.cumsum([0, *map(len, values[:-1])])
    return table, index


def _fire(c: _Compiled, memberships: np.ndarray, weights: np.ndarray, runs: list, clip: np.ndarray) -> None:
    """Write the clip levels of rows' (n, n_inputs, terms) memberships into
    clip, their (n, output terms) rows; weights is a (rules, n or more) tile
    of the sorted weights, and runs holds each concluded term's (term, first
    rule, end) in the sorted layout."""
    # taken along the first axis of the (inputs x terms, rows) transpose; along
    # the second axis of the rows, take is ~15x slower on a 200-row chunk
    flat = memberships.reshape(len(memberships), -1).T
    strengths = flat.take(c.antecedents, axis=0).min(axis=0)
    strengths *= weights[:, : len(memberships)]
    # max over rules of min(strength, consequent curve), evaluated per
    # consequent term: min is monotone in the clip level, so the max strength
    # of each consequent's run of rules gives bit-identical values with far
    # less work.  No strength is below 0.0 (aggregate rejects one; a -0.0
    # weight gives -0.0), so no level is either
    for term, first, end in runs:
        np.maximum.reduce(strengths[first:end], axis=0, out=clip[:, term])


def _kept_terms(c: _Compiled, clip: np.ndarray, rows: int) -> np.ndarray:
    """(output terms, grid blocks) flags of the terms that can raise a degree
    of a chunk's (columns, output terms) clip vectors in each block of rows
    grid points.  A term's clipped curves lie between its curve's least and
    greatest value in the block, each clipped at the chunk's lowest and
    highest level of the term, and every degree is at least the largest
    lower bound, the floor.  A term whose upper bound is at or below a
    positive floor is dropped unless it sets the floor: each value it drops
    is at most a kept positive one, and max of positive doubles has the same
    bits without it."""
    starts = np.arange(0, len(c.grid), rows)
    upper = np.minimum(np.maximum.reduceat(c.term_curves, starts, axis=1), clip.max(axis=0)[:, None])
    lower = np.minimum(np.minimum.reduceat(c.term_curves, starts, axis=1), clip.min(axis=0)[:, None])
    floor = lower.max(axis=0)
    kept = (upper > floor) | (floor <= 0.0)
    kept[lower.argmax(axis=0), np.arange(len(starts))] = True
    return kept


def _centroids(c: _Compiled, clip: np.ndarray, rows: int) -> np.ndarray:
    """Centroids of a chunk's (columns, output terms) clip vectors, walking
    the grid in blocks of rows grid points over the terms _kept_terms keeps."""
    terms = len(c.term_curves)
    # a ufunc with a broadcast operand shorter than numpy's 8192-element
    # buffer takes the buffered iterator, ~3x slower per element than
    # same-shape contiguous operands, so every broadcast is one copyto into
    # scratch: the clip levels once per chunk, each kept term's curve, w and
    # the points once per block
    levels = np.empty((terms, rows, len(clip)))
    np.copyto(levels, clip.T[:, None, :])
    degrees, clipped, tile = np.empty((3, rows, len(clip)))
    mass, moment = np.empty((2, len(clip)))
    for g, kept in zip(range(0, len(c.grid), rows), _kept_terms(c, clip, rows).T.tolist()):
        n = min(rows, len(c.grid) - g)
        d, m, t = degrees[:n], clipped[:n], tile[:n]
        # the row path's operations in its order: the clip level first in
        # min, the running max first in max
        first, *others = itertools.compress(range(terms), kept)
        np.copyto(t, c.term_curves[first, g:g + n, None])
        np.minimum(levels[first, :n], t, out=d)
        for k in others:
            np.copyto(t, c.term_curves[k, g:g + n, None])
            np.maximum(d, np.minimum(levels[k, :n], t, out=m), out=d)
        np.copyto(t, c.w[g:g + n, None])
        d *= t
        np.copyto(t, c.grid[g:g + n, None])
        np.multiply(d, t, out=m)
        # each column's mass and moment are summed strictly in grid order, so
        # a column's sums are bit-identical whatever else is in the batch (a
        # BLAS product is not) and equal to adding its points left to right:
        # reducing axis 0 subtracts whole grid rows of negated terms in order,
        # and each block after the first starts from the running sums, which
        # take its first row's place (S - (-t) is S + t)
        if g:
            np.subtract(mass, d[0], out=d[0])
            np.subtract(moment, m[0], out=m[0])
        np.subtract.reduce(d, axis=0, out=mass)
        np.subtract.reduce(m, axis=0, out=moment)
    least = mass.min()
    if least < MASS_EPSILON:
        raise NoRuleFiredError(f"total output mass {least} below {MASS_EPSILON}; no rule fired")
    return moment / mass


def _one_row(c: _Compiled, row: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat memberships (n_inputs x terms,), strengths (rules,) in the sorted
    layout and aggregated degrees (grid points,) of one row of n_inputs
    finite floats."""
    # a dozen memberships cost less as floats than as numpy calls; the clamp
    # and the exponent are _memberships' operations, in its order
    memberships = []
    for x, (lo, hi, terms) in zip(row, c.fuzzifiers):
        x = min(max(x, lo), hi)
        for center, two_sigma_sq in terms:
            d = x - center
            memberships.append(math.exp(-(d * d) / two_sigma_sq))
    memberships = np.array(memberships)
    strengths = np.minimum.reduce(memberships.take(c.antecedents), axis=0)
    strengths *= c.weights
    return memberships, strengths, _row_degrees(c, strengths)


def _infer_row(model: FuzzyModel, row: Sequence[float]) -> float:
    """Crisp output of one row of n_inputs finite floats (InvalidInputError
    for any other length)."""
    c = model._compiled
    if len(row) != len(c.fuzzifiers):
        raise InvalidInputError(f"expected {len(c.fuzzifiers)} inputs, got {len(row)}")
    return _row_centroid(_one_row(c, row)[2], c.grid, c.w)


# the odd multiplier of the key that sorts clip vectors for their dedupe,
# 2**64 over the golden ratio
_KEY_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _clip_key(clip: np.ndarray) -> np.ndarray:
    """A float per row of (rows, output terms) clip levels, equal for rows of
    equal bytes: each level's bits, their high half folded into the low,
    mixed in term order into one 64-bit hash by xor and a multiplication,
    which carries every bit into the top 53 that the float keeps.  As a
    float it sorts by the argsort that the membership table's np.unique
    already pages in."""
    bits = clip.view(np.uint64)
    key = np.zeros(len(clip), np.uint64)
    for k in range(clip.shape[1]):
        key ^= bits[:, k]
        key ^= bits[:, k] >> 32
        key *= _KEY_MULTIPLIER
    return key.astype(float)


def _infer_rows(model: FuzzyModel, x) -> np.ndarray:
    """Crisp outputs for an (N, n_inputs) array of finite inputs
    (InvalidInputError for any other shape).  Each is bit-identical to infer
    on the same row.  The rows are scored in blocks of the model's block_rows
    (4096 for up to 15 output terms), so that beside the rows and their
    outputs no intermediate spans more than one block (_infer_block)."""
    c = model._compiled
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidInputError(f"expected a (rows, {len(c.fuzzifiers)}) array of inputs, got shape {x.shape}")
    if x.shape[1] != len(c.fuzzifiers):
        raise InvalidInputError(f"expected {len(c.fuzzifiers)} inputs, got {x.shape[1]}")
    blocks = (_infer_block(c, x[i:i + c.block_rows]) for i in range(0, len(x), c.block_rows))
    return np.concatenate([np.empty(0), *blocks])


def _infer_block(c: _Compiled, x: np.ndarray) -> np.ndarray:
    """Crisp outputs of one block of (rows, n_inputs) float rows, at least
    one.  Chunking bounds the firing and curve stages' intermediates; the
    membership table and index (until the clip levels are filled) and the
    clip levels and their dedupe span the block, about 250 bytes a row.

    The firing stage takes the rows in chunks of fire_rows, the curve stage
    the block's distinct clip vectors in one chunk over the grid in blocks
    of rows that keep (output terms + 1) x rows x distinct vectors under
    CHUNK_ELEMENTS, and every ufunc in a chunk runs on same-shape arrays.
    The table, the index and the weights tile are freed before the dedupe,
    so that none of them lives through the curve stage."""
    table, index = _membership_table(c, x)
    # a term that no rule concludes reads 0.0
    clip = np.zeros((len(x), len(c.term_curves)))
    weights = np.empty((len(c.weights), min(len(x), c.fire_rows)))
    np.copyto(weights, c.weights[:, None])
    runs = list(zip(c.concluded.tolist(), c.starts.tolist(), [*c.starts[1:].tolist(), len(c.weights)]))
    for i in range(0, len(x), c.fire_rows):
        _fire(c, table.take(index[i:i + c.fire_rows], axis=0), weights, runs, clip[i:i + c.fire_rows])
    del table, index, weights
    # a row's crisp output depends on its clip levels alone, so the curve
    # stage runs once per distinct clip vector.  One argsort of a key brings
    # byte-equal vectors together, and neighbours are compared bit for bit,
    # so -0.0 and 0.0 stay apart; keys that collide can split a group, which
    # only scores its vector twice
    order = _clip_key(clip).argsort()
    clip = clip.take(order, axis=0)
    bits, fresh = clip.view(np.uint64), np.zeros(len(clip), bool)
    fresh[:1] = True
    for k in range(bits.shape[1]):
        fresh[1:] |= bits[1:, k] != bits[:-1, k]
    distinct = clip[fresh]
    inverse = np.empty(len(clip), np.intp)
    inverse[order] = np.cumsum(fresh) - 1
    rows = min(len(c.grid), CHUNK_ELEMENTS // ((distinct.shape[1] + 1) * len(distinct)))
    return _centroids(c, distinct, rows)[inverse]


def aggregate(model: FuzzyModel, firing_strengths: Sequence[float]) -> np.ndarray:
    """Max over rules of each consequent clipped at its firing strength.

    Returns an (grid_points, 2) array of (output point, degree) pairs.
    Raises InvalidInputError on a strength below 0.0 or nan; -0.0 is not below 0.0.
    """
    c = model._compiled
    try:
        strengths = _as_float_array(firing_strengths)
    except (TypeError, ValueError):
        raise InvalidInputError("firing strengths must be real numbers") from None
    rules = len(model.rules)
    if strengths.shape != (rules,):
        raise ModelIntegrityError(f"expected {rules} firing strengths, got shape {strengths.shape}")
    if not (strengths >= 0.0).all():
        raise InvalidInputError(f"firing strengths must be >= 0, got {strengths.min()}")
    return np.column_stack((c.grid, _row_degrees(c, strengths.take(c.order))))


def defuzzify_centroid(curve) -> float:
    """Centroid of a sampled fuzzy set using trapezoidal weights.

    curve is a sequence of finite (point, degree) pairs with strictly
    increasing points.  Raises NoRuleFiredError when the total mass
    is below MASS_EPSILON.
    """
    try:
        arr = _as_float_array(curve)
    except (TypeError, ValueError):  # not numbers, or pairs of unequal lengths
        arr = np.empty(0)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise InvalidInputError("curve must be a non-empty sequence of (point, degree) pairs")
    if not np.isfinite(arr).all():
        raise InvalidInputError("curve points and degrees must be finite")
    pts, degrees = arr[:, 0], arr[:, 1]
    # compared, not subtracted: the difference of two finite points can overflow
    if not (pts[1:] > pts[:-1]).all():
        raise InvalidInputError("curve points must be strictly increasing")
    outside = degrees[(degrees < 0.0) | (degrees > 1.0)]
    if outside.size:
        raise InvalidInputError(f"curve degrees must be in [0, 1], got {outside[0]}")
    _check_defuzzifiable(float(pts[0]), float(pts[-1]), "curve points", InvalidInputError)
    return _row_centroid(degrees, pts, _trapezoid_weights(pts))


def infer(model: FuzzyModel, inputs: Sequence[float]) -> InferenceTrace:
    """Run the full pipeline: clamp, fuzzify, fire, aggregate, defuzzify.

    NoRuleFiredError propagates from defuzzification; with Gaussian terms
    and at least one positive rule weight every rule fires a little, so the
    error is unreachable for such models but still handled.
    """
    if len(inputs) != len(model.inputs):
        raise InvalidInputError(
            f"expected {len(model.inputs)} inputs, got {len(inputs)}"
        )
    row = [_as_finite_float(x, f"input for {_quoted(var.name)}") for var, x in zip(model.inputs, inputs)]
    c = model._compiled
    memberships, strengths, degrees = _one_row(c, row)
    # back from the sorted layout to rule order, by one scatter
    in_rule_order = np.empty_like(strengths)
    in_rule_order[c.order] = strengths
    return InferenceTrace(
        memberships=tuple(
            tuple(m[: len(var.terms)].tolist())
            for m, var in zip(memberships.reshape(len(model.inputs), -1), model.inputs)
        ),
        firing_strengths=tuple(in_rule_order.tolist()),
        aggregated_curve=np.column_stack((c.grid, degrees)),
        crisp_output=_row_centroid(degrees, c.grid, c.w),
    )
