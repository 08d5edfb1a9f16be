from dataclasses import replace

import numpy as np
import pytest

from fuzzyspectrum import (
    FuzzyModel,
    FuzzyVariable,
    GaussianTerm,
    Rule,
    crossover_sigma,
    default_model,
)


def three_term_variable(name, lo, hi):
    """Low/Medium/High at {lo, mid, hi} with the 0.5-crossover sigma."""
    mid = (lo + hi) / 2.0
    sigma = crossover_sigma((hi - lo) / 2.0)
    return FuzzyVariable(
        name,
        lo,
        hi,
        (
            GaussianTerm("Low", lo, sigma),
            GaussianTerm("Medium", mid, sigma),
            GaussianTerm("High", hi, sigma),
        ),
    )


def random_model(rng: np.random.Generator, max_rules=100) -> FuzzyModel:
    """A structurally valid model with random universes, terms and rules."""
    n_inputs = int(rng.integers(1, 5))
    variables = []
    for v in range(n_inputs + 1):
        lo = float(rng.uniform(-50, 50))
        span = float(rng.uniform(1, 100))
        hi = lo + span
        n_terms = int(rng.integers(2, 5))
        centers = np.sort(rng.uniform(lo, hi, size=n_terms))
        while np.any(np.diff(centers) <= span * 1e-3):
            centers = np.sort(rng.uniform(lo, hi, size=n_terms))
        sigma_lo, sigma_hi = span / 6.0, span / 2.0
        terms = tuple(
            GaussianTerm(f"t{i}", float(c), float(rng.uniform(sigma_lo, sigma_hi)))
            for i, c in enumerate(centers)
        )
        variables.append(FuzzyVariable(f"v{v}", lo, hi, terms))
    inputs, output = tuple(variables[:-1]), variables[-1]

    n_rules = int(rng.integers(1, max_rules + 1))
    rules = tuple(
        Rule(
            antecedents=tuple(int(rng.integers(0, len(var.terms))) for var in inputs),
            consequent=int(rng.integers(0, len(output.terms))),
            weight=float(rng.uniform(0.05, 1.0)),
        )
        for _ in range(n_rules)
    )
    return FuzzyModel(inputs=inputs, output=output, rules=rules, grid_points=1001)


def dead_model() -> FuzzyModel:
    """The default model with every rule weight 0: no rule can fire."""
    model = default_model()
    return replace(model, rules=tuple(replace(r, weight=0.0) for r in model.rules))


def random_inputs(rng: np.random.Generator, model: FuzzyModel) -> list[float]:
    return [float(rng.uniform(v.lo, v.hi)) for v in model.inputs]


@pytest.fixture
def unit_output_model():
    """One input, one always-relevant rule, output Medium centered at 0.5."""
    x = three_term_variable("x", 0.0, 10.0)
    y = three_term_variable("y", 0.0, 1.0)
    rules = (Rule(antecedents=(1,), consequent=1, weight=1.0),)
    return FuzzyModel(inputs=(x,), output=y, rules=rules)
