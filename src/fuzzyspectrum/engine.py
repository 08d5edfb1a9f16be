"""Generic Mamdani fuzzy-inference core.

Gaussian fuzzification, weighted min rule firing, min-implication with max
aggregation over a sampled output universe, and centroid defuzzification with
trapezoidal weights.  Models are immutable plain data and every operation is
a pure function of its arguments, so one model can serve any number of
concurrent inferences.
"""

from __future__ import annotations

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
    "MASS_EPSILON",
    "MAX_GRID_POINTS",
    "gaussian_membership",
    "clamp_to_universe",
    "fuzzify",
    "firing_strength",
    "aggregate",
    "defuzzify_centroid",
    "infer",
    "output_grid",
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

# Cap on the elements of the largest intermediate of one kernel call: rows x
# output terms x grid points, or rows x rules x inputs or output terms when
# the rule base is the larger.
CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
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

    def __post_init__(self):
        object.__setattr__(self, "center", float(self.center))
        object.__setattr__(self, "sigma", float(self.sigma))
        if not self.name:
            raise ValueError("term name must be non-empty")
        if not math.isfinite(self.center):
            raise ValueError(f"term '{self.name}': center must be finite")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"term '{self.name}': sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class FuzzyVariable:
    """A linguistic variable over a bounded universe of discourse.

    Terms are kept in ascending-center order; fuzzify returns degrees in the
    same order.
    """

    name: str
    lo: float
    hi: float
    terms: tuple[GaussianTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.name:
            raise ValueError("variable name must be non-empty")
        if not (-math.inf < self.lo < self.hi < math.inf):
            raise ValueError(f"variable '{self.name}': need finite lo < hi, got [{self.lo}, {self.hi}]")
        if not self.terms:
            raise ValueError(f"variable '{self.name}': needs at least one term")
        names = [t.name for t in self.terms]
        if len(set(names)) != len(names):
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
        for i, t in enumerate(self.terms):
            if t.name == name:
                return i
        raise ModelIntegrityError(f"variable '{self.name}' has no term named '{name}'")


@dataclass(frozen=True)
class Rule:
    """IF antecedents THEN consequent, with a firing weight in [0, 1].

    Antecedents hold one term index per model input variable, in model input
    order; the consequent indexes the output variable's terms.
    """

    antecedents: tuple[int, ...]
    consequent: int
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "antecedents", tuple(int(i) for i in self.antecedents))
        object.__setattr__(self, "consequent", int(self.consequent))
        object.__setattr__(self, "weight", float(self.weight))
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
        n_out = len(self.output.terms)
        for r, rule in enumerate(self.rules):
            if len(rule.antecedents) != len(self.inputs):
                raise ModelIntegrityError(
                    f"rule {r + 1}: expected {len(self.inputs)} antecedents, "
                    f"got {len(rule.antecedents)}"
                )
            for v, idx in enumerate(rule.antecedents):
                if not (0 <= idx < len(self.inputs[v].terms)):
                    raise ModelIntegrityError(
                        f"rule {r + 1}: antecedent index {idx} out of range "
                        f"for variable '{self.inputs[v].name}'"
                    )
            if not (0 <= rule.consequent < n_out):
                raise ModelIntegrityError(
                    f"rule {r + 1}: consequent index {rule.consequent} out of range"
                )
        object.__setattr__(self, "_compiled", _Compiled(self))


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


def firing_strength(rule: Rule, memberships: Sequence[Sequence[float]]) -> float:
    """weight times the min of the rule's antecedent degrees."""
    if len(rule.antecedents) != len(memberships):
        raise ModelIntegrityError(
            f"rule has {len(rule.antecedents)} antecedents but "
            f"{len(memberships)} membership vectors were supplied"
        )
    degree = math.inf
    for v, idx in enumerate(rule.antecedents):
        degs = memberships[v]
        if not (0 <= idx < len(degs)):
            raise ModelIntegrityError(f"antecedent index {idx} out of range for variable {v}")
        d = float(degs[idx])
        if d < degree:
            degree = d
    if not math.isfinite(degree):
        raise ModelIntegrityError("rule has no antecedents")
    return rule.weight * degree


class _Compiled:
    """A model's plain arrays, built once when the model is constructed.

    Input term parameters are padded to the widest variable; no rule
    indexes the padding.
    """

    def __init__(self, model: FuzzyModel):
        n_in, rules, output = len(model.inputs), model.rules, model.output
        self.lo = np.array([v.lo for v in model.inputs])
        self.hi = np.array([v.hi for v in model.inputs])
        self.centers = np.zeros((n_in, max(len(v.terms) for v in model.inputs)))
        self.two_sigma_sq = np.ones_like(self.centers)
        for v, var in enumerate(model.inputs):
            self.centers[v, : len(var.terms)] = [t.center for t in var.terms]
            self.two_sigma_sq[v, : len(var.terms)] = [2.0 * t.sigma * t.sigma for t in var.terms]
        self.inputs = np.arange(n_in)
        self.antecedents = np.array([r.antecedents for r in rules], np.intp).reshape(-1, n_in)
        self.weights = np.array([r.weight for r in rules])
        # one-hot (rule, output term): 1.0 where the term is the rule's consequent
        consequents = [r.consequent for r in rules]
        self.consequents = 1.0 * np.equal.outer(consequents, range(len(output.terms)))
        self.grid = np.linspace(output.lo, output.hi, model.grid_points)
        self.w = _trapezoid_weights(self.grid)
        self.term_curves = np.stack(
            [
                np.exp(-((self.grid - t.center) ** 2) / (2.0 * t.sigma * t.sigma))
                for t in output.terms
            ]
        )
        self.row_elements = max(self.term_curves.size, self.antecedents.size, self.consequents.size)


def _trapezoid_weights(points: np.ndarray) -> np.ndarray:
    if len(points) == 1:
        return np.ones(1)
    edged = np.pad(points, 1, mode="edge")
    return (edged[2:] - edged[:-2]) / 2.0


def _aggregate(c: _Compiled, strengths: np.ndarray) -> np.ndarray:
    # max over rules of min(strength, consequent curve), evaluated per
    # consequent term: min is monotone in the clip level, so taking the max
    # strength within each consequent group first gives bit-identical values
    # with far less work
    clip = (strengths[:, :, None] * c.consequents).max(axis=1, initial=0.0)
    return np.minimum(clip[:, :, None], c.term_curves).max(axis=1)


def _centroid(degrees: np.ndarray, points: np.ndarray, w: np.ndarray) -> np.ndarray:
    # running sums along each row, in grid order: a row's result is then
    # bit-identical whatever else is in the batch (a BLAS product is not),
    # and equal to summing the grid left to right one point at a time
    mass = degrees * w
    den = mass.cumsum(axis=-1)[:, -1]
    if den.min() < MASS_EPSILON:
        raise NoRuleFiredError(f"total output mass {den.min()} below {MASS_EPSILON}; no rule fired")
    return (mass * points).cumsum(axis=-1)[:, -1] / den


# math.exp over an array: numpy's SIMD exp differs from it in the last bit
# for some arguments, and memberships must equal gaussian_membership's
_math_exp = np.frompyfunc(math.exp, 1, 1)


def _evaluate(c: _Compiled, x: np.ndarray):
    """Memberships (n, n_inputs, terms), firing strengths, aggregated degrees
    and crisp outputs for a chunk of finite rows x of shape (n, n_inputs),
    each clamped into its universe first."""
    d = np.clip(x, c.lo, c.hi)[:, :, None] - c.centers
    memberships = _math_exp(-(d**2) / c.two_sigma_sq).astype(float)
    strengths = c.weights * memberships[:, c.inputs, c.antecedents].min(axis=2)
    degrees = _aggregate(c, strengths)
    return memberships, strengths, degrees, _centroid(degrees, c.grid, c.w)


def _infer_rows(model: FuzzyModel, x: np.ndarray) -> np.ndarray:
    """Crisp outputs for an (N, n_inputs) array of finite inputs.  Each is
    bit-identical to infer on the same row, and chunking keeps memory
    bounded for any N."""
    c = model._compiled
    step = max(1, CHUNK_ELEMENTS // c.row_elements)
    crisp = np.empty(len(x))
    for i in range(0, len(x), step):
        crisp[i:i + step] = _evaluate(c, x[i:i + step])[3]
    return crisp


def output_grid(model: FuzzyModel) -> np.ndarray:
    """The output-universe sample points (grid_points, endpoints inclusive)."""
    return model._compiled.grid.copy()


def aggregate(model: FuzzyModel, firing_strengths: Sequence[float]) -> np.ndarray:
    """Max over rules of each consequent clipped at its firing strength.

    Returns an (grid_points, 2) array of (output point, degree) pairs.
    """
    c = model._compiled
    strengths = np.asarray(firing_strengths, dtype=float)
    if strengths.shape != (len(model.rules),):
        raise ModelIntegrityError(
            f"expected {len(model.rules)} firing strengths, got shape {strengths.shape}"
        )
    return np.column_stack((c.grid, _aggregate(c, strengths[None])[0]))


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
    return float(_centroid(arr[None, :, 1], pts, _trapezoid_weights(pts))[0])


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
    memberships, strengths, degrees, crisp = _evaluate(c, np.array([row]))
    return InferenceTrace(
        memberships=tuple(
            tuple(m[: len(var.terms)].tolist()) for m, var in zip(memberships[0], model.inputs)
        ),
        firing_strengths=tuple(strengths[0].tolist()),
        aggregated_curve=np.column_stack((c.grid, degrees[0])),
        crisp_output=float(crisp[0]),
    )
