"""Perforation geometries on the unit square: periodic disc lattices (plain
or shifted by half a period) and seeded random rectangle clouds. Membership
is a pure, vectorized indicator function; geometry never touches meshes.

`indicator(x, y)` broadcasts its arguments elementwise, so an x column and a
y row, `indicator(x[:, None], y[None, :])`, classify a whole tensor grid in
one call, bitwise equal to classifying its points one by one. The reference
and MsFEM grids are classified that way."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ParameterError
from .fields import _philox


@dataclass(frozen=True)
class NoPerforations:
    """Plain unit square; useful as an oracle geometry."""

    def indicator(self, x, y):
        return np.zeros(np.broadcast(x, y).shape, dtype=bool)

    def smallest_feature(self) -> float:
        return np.inf

    def describe(self) -> str:
        return "none"


@dataclass(frozen=True)
class PeriodicDiscs:
    """Discs of radius radius_factor*epsilon on the period-epsilon lattice.

    Unshifted discs sit at cell centers ((i+1/2) eps, (j+1/2) eps); a shift of
    eps/2 in both directions moves them onto the lattice corners.
    """

    epsilon: float
    radius_factor: float
    shift: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ParameterError("epsilon must be positive")
        if not 0 < self.radius_factor < 0.5 * np.sqrt(2.0):
            raise ParameterError("radius_factor must lie in (0, sqrt(2)/2)")

    @property
    def radius(self) -> float:
        return self.radius_factor * self.epsilon

    def indicator(self, x, y):
        eps = self.epsilon
        dx = np.mod(np.asarray(x) - self.shift[0] - 0.5 * eps, eps)
        dy = np.mod(np.asarray(y) - self.shift[1] - 0.5 * eps, eps)
        dx = np.minimum(dx, eps - dx)
        dy = np.minimum(dy, eps - dy)
        return dx * dx + dy * dy <= self.radius ** 2

    def smallest_feature(self) -> float:
        return 2.0 * self.radius

    def describe(self) -> str:
        tag = "shifted_periodic_discs" if any(self.shift) else "periodic_discs"
        return f"{tag}(eps={self.epsilon:g},r={self.radius_factor:g}eps)"


@dataclass(frozen=True)
class RandomRectangles:
    """Axis-aligned rectangles with centers uniform in the unit square."""

    rects: tuple  # ((cx, cy, w, h), ...)
    seed: int = 0

    def indicator(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        inside = np.zeros(np.broadcast(x, y).shape, dtype=bool)
        for (cx, cy, w, h) in self.rects:
            inside |= (np.abs(x - cx) <= 0.5 * w) & (np.abs(y - cy) <= 0.5 * h)
        return inside

    def smallest_feature(self) -> float:
        if not self.rects:
            return np.inf
        return min(min(w, h) for (_, _, w, h) in self.rects)

    def describe(self) -> str:
        return f"random_rectangles(count={len(self.rects)},seed={self.seed})"


def random_rectangles(count: int, width_range, height_range, seed: int) -> RandomRectangles:
    """Draw rectangle centers uniformly in the unit square and sizes uniformly
    in the given ranges, deterministically from the seed."""
    if count < 0:
        raise ParameterError("count must be nonnegative")
    for name, bounds in (("width_range", width_range), ("height_range", height_range)):
        if len(bounds) != 2 or not 0 <= bounds[0] <= bounds[1]:
            raise ParameterError(f"{name} must be two numbers lo, hi with 0 <= lo <= hi, "
                                 f"got {tuple(bounds)}")
    rng = _philox(seed, 0x7ec7)
    cx = rng.random(count)
    cy = rng.random(count)
    w = rng.uniform(width_range[0], width_range[1], count)
    h = rng.uniform(height_range[0], height_range[1], count)
    rects = tuple((float(a), float(b), float(c), float(d))
                  for a, b, c, d in zip(cx, cy, w, h))
    return RandomRectangles(rects=rects, seed=seed)


def build_perforations(kind: str, epsilon: float | None = None,
                       radius_factor: float | None = None,
                       count: int | None = None,
                       width_range=None, height_range=None,
                       seed: int = 0):
    """Factory for the supported geometries; validates that the result does
    not swallow the whole domain."""
    if kind == "none":
        return NoPerforations()
    if kind in ("periodic_discs", "shifted_periodic_discs"):
        if epsilon is None or radius_factor is None:
            raise ParameterError(f"{kind} needs epsilon and radius_factor")
        shift = (0.5 * epsilon, 0.5 * epsilon) if kind.startswith("shifted") else (0.0, 0.0)
        perf = PeriodicDiscs(epsilon=epsilon, radius_factor=radius_factor, shift=shift)
    elif kind == "random_rectangles":
        if count is None or width_range is None or height_range is None:
            raise ParameterError("random_rectangles needs count, width_range, height_range")
        perf = random_rectangles(count, width_range, height_range, seed)
    else:
        raise ParameterError(f"unknown perforation kind {kind!r}")
    probe = np.linspace(1 / 128, 1 - 1 / 128, 64)
    px, py = np.meshgrid(probe, probe, indexing="ij")
    if perf.indicator(px, py).all():
        raise GeometryError("perforations cover the whole domain")
    return perf
