"""Random coefficient-field laws and reproducible configuration sampling.

A configuration is the lattice of per-cell Bernoulli outcomes on the n x n
periodic box; the one law, `PerturbedPeriodic`, turns each outcome into a 2x2
conductivity matrix (the random checkerboard is its eta = 1/2 case).
Sampling is counter-based (Philox keyed by seed and index) so that the same
(seed, index, n, law) always yields the same configuration no matter in which
order configurations are generated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EllipticityError, InfeasibilityError, ParameterError

_IDENTITY = np.eye(2)


def _as_symmetric_matrix(value, name: str) -> np.ndarray:
    """Coerce to a symmetric 2x2 array; scalars become multiples of Id."""
    a = np.asarray(value, dtype=float)
    if a.ndim == 0:
        a = float(a) * _IDENTITY
    if a.shape != (2, 2):
        raise ParameterError(f"{name} must be a scalar or a 2x2 matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
        raise ParameterError(f"{name} must be symmetric")
    return 0.5 * (a + a.T)


def _min_eigenvalue(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(a)[0])


@dataclass(frozen=True)
class PerturbedPeriodic:
    """Two-phase law: constant background a_per, perturbed to a_per + c_per
    on Bernoulli(eta) cells."""

    a_per: np.ndarray
    c_per: np.ndarray
    eta: float

    def __post_init__(self):
        # read-only, so the ellipticity checks below hold for the law's life
        for name in ("a_per", "c_per"):
            a = _as_symmetric_matrix(getattr(self, name), name)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if not 0.0 <= self.eta <= 1.0:
            raise ParameterError(f"eta must lie in [0, 1], got {self.eta}")
        if _min_eigenvalue(self.a_per) <= 0.0:
            raise EllipticityError("a_per is not positive definite")
        if _min_eigenvalue(self.a_per + self.c_per) <= 0.0:
            raise EllipticityError("a_per + c_per is not positive definite")

    def __eq__(self, other) -> bool:
        """Equal laws: the same eta and the same matrices, bit for bit."""
        if not isinstance(other, PerturbedPeriodic):
            return NotImplemented
        return (self.eta == other.eta and np.array_equal(self.a_per, other.a_per)
                and np.array_equal(self.c_per, other.c_per))

    def phase_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        return self.a_per, self.a_per + self.c_per

    def describe(self) -> str:
        a = ",".join(f"{v:g}" for v in self.a_per.ravel())
        c = ",".join(f"{v:g}" for v in self.c_per.ravel())
        return f"perturbed(a_per=[{a}],c_per=[{c}],eta={self.eta:g})"


def Checkerboard(alpha: float, beta: float) -> PerturbedPeriodic:
    """The random checkerboard, each cell alpha*Id or beta*Id with probability
    1/2, as the perturbed-periodic law a_per = alpha*Id, c_per = (beta -
    alpha)*Id, eta = 1/2. Its phase-1 matrix alpha + (beta - alpha) is beta
    bit for bit whenever beta - alpha is exact (integers, or beta/2 <= alpha
    <= 2*beta), and within 1 ulp of it otherwise."""
    if not (alpha > 0 and beta > 0):
        raise ParameterError("checkerboard conductivities alpha, beta must be positive")
    return PerturbedPeriodic(a_per=alpha * _IDENTITY, c_per=(beta - alpha) * _IDENTITY,
                             eta=0.5)


@dataclass(frozen=True)
class Configuration:
    """One realization: the n x n lattice of Bernoulli outcomes in {0, 1}."""

    n: int
    draws: np.ndarray
    seed: int
    index: int
    p: float = 0.5
    antithetic: bool = False
    balanced: bool = False

    def __post_init__(self):
        draws = np.ascontiguousarray(self.draws, dtype=np.uint8)
        if draws.shape != (self.n, self.n):
            raise ParameterError(f"draws must have shape ({self.n}, {self.n}), got {draws.shape}")
        if draws.size and draws.max() > 1:
            raise ParameterError("draws must take values in {0, 1}")
        draws.flags.writeable = False
        object.__setattr__(self, "draws", draws)

    @property
    def ones_fraction(self) -> float:
        return float(self.draws.mean())


@dataclass(frozen=True)
class CoefficientField:
    """Cell-wise constant 2x2 symmetric coefficient field on the n x n box."""

    n: int
    cells: np.ndarray  # shape (n, n, 2, 2), indexed [kx, ky]

    def __post_init__(self):
        cells = np.ascontiguousarray(self.cells, dtype=float)
        if cells.shape != (self.n, self.n, 2, 2):
            raise ParameterError(f"cells must have shape ({self.n}, {self.n}, 2, 2)")
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    def voigt_reuss_bounds(self) -> tuple[float, float]:
        """Harmonic-mean lower and arithmetic-mean upper eigenvalue bounds."""
        flat = self.cells.reshape(-1, 2, 2)
        arith = flat.mean(axis=0)
        harm = np.linalg.inv(np.linalg.inv(flat).mean(axis=0))
        return float(np.linalg.eigvalsh(harm)[0]), float(np.linalg.eigvalsh(arith)[1])


def _philox(seed: int, index: int) -> np.random.Generator:
    key = ((int(seed) % (1 << 64)) << 64) | (int(index) % (1 << 64))
    return np.random.Generator(np.random.Philox(key=key))


def _uniform_lattice(n: int, seed: int, index: int) -> np.ndarray:
    """The deterministic uniform lattice behind configuration (seed, index)."""
    return _philox(seed, index).random((n, n))


def sample_configuration(law: PerturbedPeriodic, n: int, seed: int,
                         index: int) -> Configuration:
    """Draw one i.i.d. Bernoulli(eta) configuration for the given law
    (eta = 1/2 for the checkerboard). Pure function of (law, n, seed, index).
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    draws = (_uniform_lattice(n, seed, index) < law.eta).astype(np.uint8)
    return Configuration(n=n, draws=draws, seed=seed, index=index, p=law.eta)


def antithetic_transform(c: Configuration) -> Configuration:
    """The law-preserving antithetic partner of a configuration.

    For p = 1/2 this is the plain bit flip (heads become tails). For general
    p the flip happens in uniform space (U -> 1-U) before thresholding, which
    preserves the Bernoulli(p) law; that path regenerates the underlying
    uniforms from (seed, index) and is therefore only available for
    Bernoulli-sampled configurations.
    """
    if c.p == 0.5:
        flipped = (1 - c.draws).astype(np.uint8)
    else:
        if c.balanced:
            raise ParameterError("antithetic transform of a balanced configuration needs p = 1/2")
        u = _uniform_lattice(c.n, c.seed, c.index)
        want_antithetic = not c.antithetic
        draws = ((1.0 - u) < c.p) if want_antithetic else (u < c.p)
        flipped = draws.astype(np.uint8)
    return replace(c, draws=flipped, antithetic=not c.antithetic)


def realize_field(law: PerturbedPeriodic, c: Configuration) -> CoefficientField:
    """Turn a configuration into the cell-wise constant coefficient field;
    the law checked its phases' ellipticity when it was made."""
    if abs(law.eta - c.p) > 1e-12:
        raise ParameterError(
            f"configuration was drawn with p={c.p} but law has p={law.eta}")
    a0, a1 = law.phase_matrices()
    cells = np.where(c.draws[:, :, None, None].astype(bool), a1, a0)
    return CoefficientField(n=c.n, cells=cells)


def balanced_ones(n: int, p: float) -> int:
    """The number of ones, p*n^2, of an exactly balanced n x n configuration;
    InfeasibilityError when p*n^2 is not an integer."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"p must lie in [0, 1], got {p}")
    m_ones = p * (n * n)
    if abs(m_ones - round(m_ones)) > 1e-9:
        raise InfeasibilityError(
            f"p*n^2 = {m_ones} (n={n}) is not an integer; exact first-moment balance is "
            f"infeasible (with p=1/2 this requires n^2 even)")
    return int(round(m_ones))


def sqs1_exact_sample(n: int, seed: int, index: int, p: float = 0.5) -> Configuration:
    """A configuration drawn uniformly among those with exactly round(p*n^2) ones.

    The centered first-moment condition sum_k (X_k - p) = 0 then holds exactly
    (integer arithmetic). Implemented as a random permutation of the balanced
    multiset rather than by rejection.
    """
    m_ones = balanced_ones(n, p)
    flat = np.zeros(n * n, dtype=np.uint8)
    flat[:m_ones] = 1
    _philox(seed, index).shuffle(flat)
    return Configuration(n=n, draws=flat.reshape(n, n), seed=seed, index=index,
                         p=p, balanced=True)
