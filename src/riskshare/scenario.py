"""Finite scenario spaces, loss profiles, and distributional utilities.

Everything downstream (risk measures, markets, sharing) is built over a
finite probability space.  Losses are real vectors indexed by scenario,
in monetary units, with the sign convention that larger values are worse
(losses net of gains).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError

__all__ = [
    "ScenarioSpace",
    "RandomVariable",
    "Functional",
    "SupportMask",
]


@dataclass(frozen=True)
class ScenarioSpace:
    """A finite probability space: unique labels with strictly positive
    probabilities summing to one (within 1e-12)."""

    labels: tuple
    probs: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)
        if len(labels) != len(set(labels)):
            raise StructuralError("scenario labels must be unique")
        if len(labels) < 1:
            raise StructuralError("scenario space needs at least one scenario")
        if probs.shape != (len(labels),):
            raise StructuralError("one probability per label required")
        _check_finite("probability", probs, "scenario", labels)
        if np.any(probs <= 0.0):
            raise StructuralError("all probabilities must be strictly positive")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise StructuralError(
                f"probabilities sum to {probs.sum()!r}, expected 1 within 1e-12"
            )

    @classmethod
    def uniform(cls, labels) -> "ScenarioSpace":
        labels = tuple(labels)
        n = len(labels)
        return cls(labels, np.full(n, 1.0 / n))

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise StructuralError(f"unknown scenario label {label!r}") from None

    def rv(self, values) -> "RandomVariable":
        return RandomVariable(self, np.asarray(values, dtype=float))

    def rv_from_dict(self, mapping) -> "RandomVariable":
        """A loss profile from label -> value, unlisted labels 0, each
        value read by _real_number; RandomVariable refuses an infinite
        one."""
        vals = np.zeros(self.size)
        for label, v in mapping.items():
            vals[self.index(label)] = _real_number(v, f"scenario {label!r}")
        return RandomVariable(self, vals)

    def indicator(self, labels) -> "RandomVariable":
        vals = np.zeros(self.size)
        for label in labels:
            vals[self.index(label)] = 1.0
        return RandomVariable(self, vals)


def _real_number(v, where: str) -> float:
    """A document's real number as a float, the one reader of every
    number a problem document holds.  A value must be a real number, as a
    document's `number` is: a bool or a string is refused, not converted,
    with a StructuralError naming `where`.  An integer past the float
    range reads as the infinity it rounds to, which whatever holds the
    number refuses as non-finite."""
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        raise StructuralError(f"non-numeric value {v!r} at {where}")
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _check_finite(field_name: str, values: np.ndarray, item: str,
                  names) -> None:
    """Refuse NaN or +-inf in a vector, naming the first offending entry
    as `item names[i]`."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise StructuralError(
            f"non-finite {field_name} {float(values[bad[0]])} at {item} "
            f"{names[bad[0]]!r}")


def _check_same_space(a, b):
    if a.space is not b.space and (
        a.space.labels != b.space.labels
        or not np.array_equal(a.space.probs, b.space.probs)
    ):
        raise StructuralError("operands live on different scenario spaces")


@dataclass(frozen=True)
class RandomVariable:
    """A loss profile: one real value per scenario."""

    space: ScenarioSpace
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.space.size,):
            raise StructuralError(
                f"expected {self.space.size} values, got shape {values.shape}"
            )
        _check_finite("value", values, "scenario", self.space.labels)

    # Light arithmetic so tests and callers can assemble profiles naturally.
    def __add__(self, other):
        if isinstance(other, RandomVariable):
            _check_same_space(self, other)
            return RandomVariable(self.space, self.values + other.values)
        return RandomVariable(self.space, self.values + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, RandomVariable):
            _check_same_space(self, other)
            return RandomVariable(self.space, self.values - other.values)
        return RandomVariable(self.space, self.values - float(other))

    def __rsub__(self, other):
        return RandomVariable(self.space, float(other) - self.values)

    def __mul__(self, scalar):
        return RandomVariable(self.space, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return RandomVariable(self.space, -self.values)


@dataclass(frozen=True)
class Functional:
    """A linear functional represented by a density: acts by
    phi(X) = sum_w density(w) * probs(w) * X(w)."""

    space: ScenarioSpace
    density: np.ndarray

    def __post_init__(self):
        density = np.asarray(self.density, dtype=float)
        object.__setattr__(self, "density", density)
        if density.shape != (self.space.size,):
            raise StructuralError("functional density has wrong length")
        _check_finite("density", density, "scenario", self.space.labels)

    @property
    def weights(self) -> np.ndarray:
        """Per-scenario weights density*probs (the functional's coordinates
        in the standard pairing)."""
        return self.density * self.space.probs

    def __call__(self, X: RandomVariable) -> float:
        _check_same_space(self, X)
        return float(self.weights @ X.values)


@dataclass(frozen=True)
class SupportMask:
    """A coordinate subspace of R^Omega: losses supported on the included
    scenarios.  Membership means X(w) = 0 for every excluded w."""

    space: ScenarioSpace
    included: np.ndarray

    def __post_init__(self):
        inc = np.asarray(self.included, dtype=bool)
        object.__setattr__(self, "included", inc)
        if inc.shape != (self.space.size,):
            raise StructuralError("support mask has wrong length")

    @classmethod
    def full(cls, space: ScenarioSpace) -> "SupportMask":
        return cls(space, np.ones(space.size, dtype=bool))

    @classmethod
    def from_labels(cls, space: ScenarioSpace, labels) -> "SupportMask":
        inc = np.zeros(space.size, dtype=bool)
        for label in labels:
            inc[space.index(label)] = True
        return cls(space, inc)

    def contains(self, X: RandomVariable, tol: float = 0.0) -> bool:
        _check_same_space(self, X)
        excluded = ~self.included
        if not excluded.any():
            return True
        return bool(np.max(np.abs(X.values[excluded]), initial=0.0) <= tol)

    @property
    def dim(self) -> int:
        return int(self.included.sum())


def _lower_quantile(probs, values, level: float) -> float:
    """Smallest value v with  sum { probs : values <= v } >= level."""
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(probs[order])
    idx = min(int(np.searchsorted(cum, level - 1e-12)), len(values) - 1)
    return float(values[order][idx])
