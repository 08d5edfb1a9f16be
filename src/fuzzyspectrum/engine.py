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
    "Rule",
    "FuzzyModel",
    "InferenceTrace",
    "gaussian_membership",
    "clamp_to_universe",
    "fuzzify",
    "aggregate",
    "defuzzify_centroid",
    "infer",
]


class FuzzyError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(FuzzyError):
    """A crisp input was rejected (non-finite or not a number)."""


class ModelIntegrityError(FuzzyError):
    """A rule refers to a term or variable that does not exist."""


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
# stage, grid points x clip vectors in the curve stage.
CHUNK_ELEMENTS = 1 << 16


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
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "center", float(center))
        object.__setattr__(self, "sigma", float(sigma))
        if not self.name:
            raise ValueError("term name must be non-empty")
        if not math.isfinite(self.center):
            raise ValueError(f"term '{self.name}': center must be finite")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"term '{self.name}': sigma must be positive, got {self.sigma}")
        # the kernel divides by 2.0 * sigma * sigma, which must neither
        # underflow to 0.0 nor overflow to inf
        spread = 2.0 * self.sigma * self.sigma
        if not (0.0 < spread < math.inf):
            raise ValueError(
                f"term '{self.name}': sigma {self.sigma} out of range, "
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
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "lo", float(lo))
        object.__setattr__(self, "hi", float(hi))
        object.__setattr__(self, "terms", tuple(terms))
        if not self.name:
            raise ValueError("variable name must be non-empty")
        if not (-math.inf < self.lo < self.hi < math.inf):
            raise ValueError(f"variable '{self.name}': need finite lo < hi, got [{self.lo}, {self.hi}]")
        if not self.terms:
            raise ValueError(f"variable '{self.name}': needs at least one term")
        object.__setattr__(self, "_term_indices", {t.name: i for i, t in enumerate(self.terms)})
        if len(self._term_indices) != len(self.terms):
            raise ValueError(f"variable '{self.name}': duplicate term names")
        for t in self.terms:
            if not (self.lo <= t.center <= self.hi):
                raise ValueError(
                    f"variable '{self.name}': term '{t.name}' center {t.center} "
                    f"outside universe [{self.lo}, {self.hi}]"
                )
        centers = [t.center for t in self.terms]
        if any(a >= b for a, b in zip(centers, centers[1:])):
            raise ValueError(f"variable '{self.name}': term centers must be strictly increasing")

    def term_index(self, name: str) -> int:
        if name not in self._term_indices:
            raise ModelIntegrityError(f"variable '{self.name}' has no term named '{name}'")
        return self._term_indices[name]


@dataclass(frozen=True, init=False)
class Rule:
    """IF antecedents THEN consequent, with a firing weight in [0, 1].

    Antecedents hold one term index per model input variable, in model input
    order; the consequent indexes the output variable's terms.
    """

    antecedents: tuple[int, ...]
    consequent: int
    weight: float = 1.0

    def __init__(self, antecedents: Sequence[int], consequent: int, weight: float = 1.0):
        # written by hand so that each field is converted and set once
        object.__setattr__(self, "antecedents", tuple(map(int, antecedents)))
        object.__setattr__(self, "consequent", int(consequent))
        object.__setattr__(self, "weight", float(weight))
        if not (0.0 <= self.weight <= 1.0):
            raise ValueError(f"rule weight must be in [0, 1], got {self.weight}")


@dataclass(frozen=True)
class FuzzyModel:
    """Input variables, one output variable, a rule base, and grid settings.

    grid_points controls the output-universe discretization used for
    aggregation and centroid defuzzification (endpoints inclusive).
    """

    inputs: tuple[FuzzyVariable, ...]
    output: FuzzyVariable
    rules: tuple[Rule, ...]
    grid_points: int = 1001

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "grid_points", int(self.grid_points))
        if not self.inputs:
            raise ValueError("model needs at least one input variable")
        if self.grid_points < 2:
            raise ValueError(f"grid_points must be >= 2, got {self.grid_points}")
        if self.grid_points > MAX_GRID_POINTS:
            raise ValueError(f"grid_points must be <= {MAX_GRID_POINTS}, got {self.grid_points}")
        names = [v.name for v in self.inputs] + [self.output.name]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique across the model")
        # one (rules, inputs + 1) table of antecedents and consequent, checked
        # as a whole; a ragged rule base or an index too big for intp fails
        # to build it, and the walk below then names the first bad rule
        sizes = [len(v.terms) for v in self.inputs] + [len(self.output.terms)]
        table = _rule_table(self.rules, len(self.inputs))
        if table is None or ((table < 0) | (table >= sizes)).any():
            for r, rule in enumerate(self.rules):
                _check_rule(self, r, rule)
        # checked before the grid and the term curves are allocated
        out = self.output
        if len(out.terms) * self.grid_points > _MAX_CURVE_POINTS:
            raise ValueError(
                f"output terms x grid_points must be <= {_MAX_CURVE_POINTS}, "
                f"got {len(out.terms)} x {self.grid_points}"
            )
        # the centroid's moment sums degree x weight x point over the grid,
        # at most (hi - lo) * max(|lo|, |hi|), which must stay finite with
        # room for rounding
        if not math.isfinite(4.0 * (out.hi - out.lo) * max(abs(out.lo), abs(out.hi))):
            raise ValueError(
                f"variable '{out.name}': output universe [{out.lo}, {out.hi}] too wide to defuzzify, "
                "(hi - lo) * max(|lo|, |hi|) must be finite"
            )
        # a Gaussian exponent, squared distance over 2*sigma*sigma as the
        # kernel computes it, is largest at the farther bound of the universe
        # and must not overflow there
        for var in (*self.inputs, out):
            for t in var.terms:
                d = max(t.center - var.lo, var.hi - t.center)
                if not math.isfinite(d * d / (2.0 * t.sigma * t.sigma)):
                    raise ValueError(
                        f"variable '{var.name}': term '{t.name}' exponent overflows at the universe's bounds, "
                        f"d*d / (2*sigma*sigma) must be finite, got d = {d}, sigma = {t.sigma}"
                    )
        object.__setattr__(self, "_compiled", _Compiled(self, table))

    def term_names(self, antecedents: Sequence[int]) -> list[str]:
        """The input term names a rule's antecedent indices select, in input order."""
        return [var.terms[idx].name for var, idx in zip(self.inputs, antecedents)]


def _rule_table(rules: tuple[Rule, ...], n_in: int) -> np.ndarray | None:
    """The (rules, n_in + 1) table of the rules' antecedents and consequent,
    or None when a rule has another number of antecedents or an index does
    not fit in intp."""
    antecedents = [r.antecedents for r in rules]
    if not set(map(len, antecedents)) <= {n_in}:
        return None
    # two flat reads: numpy discovers a nested sequence's shape far more slowly
    table = np.empty((len(rules), n_in + 1), np.intp)
    try:
        flat = np.fromiter(itertools.chain.from_iterable(antecedents), np.intp, len(rules) * n_in)
        table[:, :n_in] = flat.reshape(len(rules), n_in)
        table[:, n_in] = np.fromiter([r.consequent for r in rules], np.intp, len(rules))
    except OverflowError:
        return None
    return table


def _check_rule(model: FuzzyModel, r: int, rule: Rule) -> None:
    """Raise the ModelIntegrityError naming the first fault of rule r + 1, if it has one."""
    where = f"rule {r + 1}"
    if len(rule.antecedents) != len(model.inputs):
        raise ModelIntegrityError(f"{where}: expected {len(model.inputs)} antecedents, got {len(rule.antecedents)}")
    for var, idx in zip(model.inputs, rule.antecedents):
        if not (0 <= idx < len(var.terms)):
            raise ModelIntegrityError(f"{where}: antecedent index {idx} out of range for variable '{var.name}'")
    if not (0 <= rule.consequent < len(model.output.terms)):
        raise ModelIntegrityError(f"{where}: consequent index {rule.consequent} out of range")


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
    d = float(x) - term.center
    return math.exp(-(d * d) / (2.0 * term.sigma * term.sigma))


def clamp_to_universe(var: FuzzyVariable, x: float) -> float:
    """Clamp x into [var.lo, var.hi]; out-of-range measurements are mapped
    to the nearest modeled value rather than rejected."""
    return min(max(float(x), var.lo), var.hi)


def _as_finite_float(x, what: str) -> float:
    try:
        xf = float(x)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what} must be a real number, got {x!r}") from exc
    if not math.isfinite(xf):
        raise InvalidInputError(f"{what} must be finite, got {xf}")
    return xf


def fuzzify(var: FuzzyVariable, x: float) -> np.ndarray:
    """Degrees of x in each of var's terms, in term order."""
    xf = _as_finite_float(x, f"input for '{var.name}'")
    return np.array([gaussian_membership(xf, t) for t in var.terms])


class _Compiled:
    """A model's plain arrays, built once when the model is constructed from
    its checked (rules, inputs + 1) table of antecedents and consequent.

    Input term parameters are padded to the widest variable; no rule
    indexes the padding.  The rule arrays hold the rules sorted by
    consequent, stably, so that the rules concluding each output term are
    one run and the term's clip level one max over it.
    """

    def __init__(self, model: FuzzyModel, table: np.ndarray):
        n_in, output = len(model.inputs), model.output
        width = max(len(v.terms) for v in model.inputs)
        self.table = table
        self.lo = np.array([v.lo for v in model.inputs])
        self.hi = np.array([v.hi for v in model.inputs])
        centers, two_sigma_sq = [], []
        for var in model.inputs:
            pad = width - len(var.terms)
            centers += [t.center for t in var.terms] + [0.0] * pad
            two_sigma_sq += [2.0 * t.sigma * t.sigma for t in var.terms] + [1.0] * pad
        self.centers = np.array(centers).reshape(n_in, width)
        self.two_sigma_sq = np.array(two_sigma_sq).reshape(n_in, width)
        # _exponents' parameters for a row; the values of input i take row i of each
        self.params = (self.lo, self.hi, self.centers, self.two_sigma_sq)
        # rule order[p] sits at position p of the sorted layout, and rule r
        # at position positions[r].  Python's sort is stable like numpy's
        # kind="stable", and pages in no numpy sort code, which would add
        # ~0.14 MB to the peak RSS of a process that only decides
        consequents = table[:, n_in]
        self.order = np.array(sorted(range(len(table)), key=consequents.tolist().__getitem__), np.intp)
        self.positions = np.empty_like(self.order)
        self.positions[self.order] = np.arange(len(self.order))
        # (inputs, rules) antecedent positions in a row's flattened memberships
        antecedents = table[self.order, :n_in].T + np.arange(n_in)[:, None] * width
        self.antecedents = np.ascontiguousarray(antecedents)
        self.weights = np.array([r.weight for r in model.rules])[self.order]
        # the output terms that some rule concludes, and the first sorted
        # rule of each
        counts = np.bincount(consequents, minlength=len(output.terms))
        self.concluded = np.flatnonzero(counts)
        self.starts = (np.cumsum(counts) - counts)[self.concluded]
        self.grid = np.linspace(output.lo, output.hi, model.grid_points)
        self.w = _trapezoid_weights(self.grid)
        # (output terms, grid points) in one expression, bit for bit each
        # term's np.exp(-((grid - center) ** 2) / (2.0 * sigma * sigma))
        out_centers = np.array([t.center for t in output.terms])[:, None]
        out_sigmas = np.array([t.sigma for t in output.terms])[:, None]
        self.term_curves = np.exp(-((self.grid - out_centers) ** 2) / (2.0 * out_sigmas * out_sigmas))
        # rows per chunk of the firing stage (its largest intermediate per row
        # is rules x inputs, inputs x terms or the clip levels) and clip
        # vectors per chunk of the curve stage (its buffers are grid points x
        # clip vectors)
        row_elements = max(self.antecedents.size, self.centers.size, len(output.terms))
        self.fire_rows = max(1, CHUNK_ELEMENTS // row_elements)
        self.curve_rows = max(1, CHUNK_ELEMENTS // model.grid_points)


def _trapezoid_weights(points: np.ndarray) -> np.ndarray:
    if len(points) == 1:
        return np.ones(1)
    edged = np.concatenate((points[:1], points, points[-1:]))
    return (edged[2:] - edged[:-2]) / 2.0


def _clip_levels(c: _Compiled, strengths: np.ndarray) -> np.ndarray:
    """Clip levels (..., output terms) of strengths (..., rules) in the
    sorted layout."""
    # max over rules of min(strength, consequent curve), evaluated per
    # consequent term: min is monotone in the clip level, so taking the max
    # strength of each consequent's run of rules first gives bit-identical
    # values with far less work
    levels = np.maximum.reduceat(strengths, c.starts, axis=-1)
    # no strength is below 0.0 (aggregate rejects one; a -0.0 weight gives
    # -0.0), so no level is either; a term that no rule concludes reads 0.0
    clip = np.zeros(levels.shape[:-1] + (len(c.term_curves),))
    clip[..., c.concluded] = levels
    return clip


def _degrees(c: _Compiled, clip: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Aggregated degrees: (grid points,) of one (output terms,) clip vector,
    or grid-major (grid points, clip vectors) of (clip vectors, output terms).

    Several clip vectors are computed in work, a (2, grid points, clip
    vectors) array that a caller scoring chunk after chunk allocates (and
    page-faults) once; the result is then work[0].
    """
    if clip.ndim == 1:
        # one vector: a single broadcast over the terms makes two numpy
        # calls where the term loop makes five, which shows on every decision
        return np.minimum(clip[:, None], c.term_curves).max(axis=0)
    degrees, clipped = work
    np.minimum(clip[:, 0], c.term_curves[0][:, None], out=degrees)
    for k in range(1, clip.shape[1]):
        np.maximum(degrees, np.minimum(clip[:, k], c.term_curves[k][:, None], out=clipped), out=degrees)
    return degrees


def _centroid(mass: np.ndarray, points: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Centroids of one curve's (grid points,) degrees or of grid-major
    (grid points, columns) degrees, passed in mass, which may be overwritten."""
    # each column's mass and moment are summed strictly in grid order, so a
    # column's sums are bit-identical whatever else is in the batch (a BLAS
    # product is not) and equal to adding its points left to right one at a
    # time.  Reducing axis 0 adds whole grid rows in order; numpy reduces a
    # lone contiguous column pairwise instead, so one column, (grid points,)
    # or (grid points, 1), takes a running sum, of mass and moment at once as
    # the real and imaginary parts of complex numbers, which add as two
    # independent doubles
    if mass.size == len(mass):
        sums = np.empty(len(mass), complex)
        np.multiply(mass.reshape(len(mass)), w, out=sums.real)
        np.multiply(sums.real, points, out=sums.imag)
        total = np.add.accumulate(sums)[-1:]
        den, moment = total.real, total.imag
    else:
        mass *= w[:, None]
        den = np.add.reduce(mass, axis=0)
        mass *= points[:, None]
        moment = np.add.reduce(mass, axis=0)
    if den.min() < MASS_EPSILON:
        raise NoRuleFiredError(f"total output mass {den.min()} below {MASS_EPSILON}; no rule fired")
    return moment / den


def _exp(a: np.ndarray) -> np.ndarray:
    # math.exp elementwise: numpy's SIMD exp differs from it in the last bit
    # for some arguments, and memberships must equal gaussian_membership's
    return np.fromiter(map(math.exp, a.ravel().tolist()), float, a.size).reshape(a.shape)


def _exponents(x: np.ndarray, lo, hi, centers: np.ndarray, two_sigma_sq: np.ndarray) -> np.ndarray:
    """Gaussian exponents of finite x, clamped into [lo, hi] first:
    (n_inputs, terms) for one row x with a _Compiled's params, (n, terms)
    for values x of input i with its input_params[i]."""
    # the same clamp as np.clip, in two cheaper calls
    d = np.minimum(np.maximum(x, lo), hi)[..., None] - centers
    return -(d**2) / two_sigma_sq


def _strengths(c: _Compiled, memberships: np.ndarray) -> np.ndarray:
    """Firing strengths, in the sorted layout, of one row's (n_inputs, terms)
    memberships, (rules,), or of rows' (n, n_inputs, terms), (n, rules)."""
    # taken along the first axis of the (inputs x terms, rows) transpose; along
    # the second axis of the rows, take is ~15x slower on a 200-row chunk
    flat = memberships.reshape(memberships.shape[:-2] + (-1,)).T
    return c.weights * flat.take(c.antecedents, axis=0).min(axis=0).T


def _membership_table(c: _Compiled, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Memberships of each input's distinct values in rows x, as one
    (distinct values, terms) table, and each row's (n_inputs,) entries in it."""
    # math.exp, the costly step, runs once per distinct value of each input;
    # merging -0.0 with 0.0 is harmless, as both give the same exponents
    columns = [np.unique(column, return_inverse=True) for column in x.T]
    table = _exp(np.concatenate([_exponents(values, *(p[i] for p in c.params)) for i, (values, _) in enumerate(columns)]))
    offsets = np.cumsum([0] + [len(values) for values, _ in columns[:-1]])
    return table, np.column_stack([inverse + offset for (_, inverse), offset in zip(columns, offsets)])


def _fire(c: _Compiled, memberships: np.ndarray) -> np.ndarray:
    """Clip levels (n, output terms) of rows' (n, n_inputs, terms) memberships."""
    return _clip_levels(c, _strengths(c, memberships))


def _one_row(c: _Compiled, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Memberships (n_inputs, terms), strengths (rules,) in the sorted
    layout and aggregated degrees (grid points,) of one (n_inputs,) row."""
    memberships = _exp(_exponents(x, *c.params))
    strengths = _strengths(c, memberships)
    return memberships, strengths, _degrees(c, _clip_levels(c, strengths))


def _infer_rows(model: FuzzyModel, x) -> np.ndarray:
    """Crisp outputs for N rows of n_inputs finite inputs (InvalidInputError
    for any other row length).  Each is bit-identical to infer on the same
    row, and chunking keeps memory bounded for any N."""
    c = model._compiled
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != len(c.lo):
        raise InvalidInputError(f"expected {len(c.lo)} inputs, got {x.shape[-1]}")
    if len(x) == 1:
        return _centroid(_one_row(c, x[0])[2], c.grid, c.w)
    table, index = _membership_table(c, x)
    clip = np.empty((len(x), len(c.term_curves)))
    for i in range(0, len(x), c.fire_rows):
        clip[i:i + c.fire_rows] = _fire(c, table.take(index[i:i + c.fire_rows], axis=0))
    # a row's crisp output depends on its clip levels alone, so the curve
    # stage runs once per distinct clip vector, compared bit for bit so that
    # -0.0 and 0.0 stay apart
    bits = clip.view(np.dtype((np.void, clip.itemsize * clip.shape[1]))).ravel()
    _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
    distinct = clip[first]
    crisp = np.empty(len(distinct))
    work = np.empty(2 * len(c.grid) * min(len(distinct), c.curve_rows))
    for i in range(0, len(distinct), c.curve_rows):
        chunk = distinct[i:i + c.curve_rows]
        # a contiguous view even for a short last chunk: a strided one
        # costs numpy's ufuncs up to twice as much
        chunk_work = work[: 2 * len(c.grid) * len(chunk)].reshape(2, len(c.grid), len(chunk))
        crisp[i:i + len(chunk)] = _centroid(_degrees(c, chunk, chunk_work), c.grid, c.w)
    return crisp[inverse.ravel()]


def aggregate(model: FuzzyModel, firing_strengths: Sequence[float]) -> np.ndarray:
    """Max over rules of each consequent clipped at its firing strength.

    Returns an (grid_points, 2) array of (output point, degree) pairs.
    Raises ValueError on a strength below 0.0; -0.0 is not below it.
    """
    c = model._compiled
    strengths = np.asarray(firing_strengths, dtype=float)
    if strengths.shape != (len(model.rules),):
        raise ModelIntegrityError(
            f"expected {len(model.rules)} firing strengths, got shape {strengths.shape}"
        )
    if (strengths < 0.0).any():
        raise ValueError(f"firing strengths must be >= 0, got {strengths.min()}")
    return np.column_stack((c.grid, _degrees(c, _clip_levels(c, strengths.take(c.order)))))


def defuzzify_centroid(curve) -> float:
    """Centroid of a sampled fuzzy set using trapezoidal weights.

    curve is a sequence of (point, degree) pairs with strictly increasing
    points.  Raises NoRuleFiredError when the total mass is below
    MASS_EPSILON.
    """
    arr = np.asarray(curve, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise ValueError("curve must be a non-empty sequence of (point, degree) pairs")
    pts = arr[:, 0]
    if arr.shape[0] > 1 and not np.all(np.diff(pts) > 0):
        raise ValueError("curve points must be strictly increasing")
    return float(_centroid(arr[:, 1], pts, _trapezoid_weights(pts))[0])


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
    row = [_as_finite_float(x, f"input for '{var.name}'") for var, x in zip(model.inputs, inputs)]
    c = model._compiled
    memberships, strengths, degrees = _one_row(c, np.array(row))
    curve = np.column_stack((c.grid, degrees))
    crisp = _centroid(degrees, c.grid, c.w)
    return InferenceTrace(
        memberships=tuple(
            tuple(m[: len(var.terms)].tolist()) for m, var in zip(memberships, model.inputs)
        ),
        firing_strengths=tuple(strengths.take(c.positions).tolist()),
        aggregated_curve=curve,
        crisp_output=float(crisp[0]),
    )
