"""Auxiliary integrals and condition values for selection (SQS) sampling.

Writing the coefficient as a constant background C0 plus per-cell occupancies
times a perturbation C1, the first two moment-matching conditions on a finite
box involve the solution phi of -div[C0 grad phi] = div[1_Q C1 p] with
periodic boundary conditions. The per-cell integrals of C1 grad phi enter a
quadratic form in the centered occupancies; configurations are selected so the
form matches its infinite-volume expectation. (The zero-order condition holds
automatically for integer box sizes under periodic truncation, so only the
first two moments need checking.)
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .correctors import E1, E2
from .errors import GridMismatchError
from .fields import PerturbedPeriodic
from .grid import periodic_grid

# FFT solves of one `sqs_auxiliary`: e_1 and e_2 on the working box and on the
# enlarged box.
AUX_SOLVES = 2 * 2

# Configurations that `sqs_condition_values` ranks per stacked FFT: a pool of
# thousands is ranked in blocks, so its transforms stay a few hundred kB.
RANK_BLOCK = 256


def _cell_flux_integrals(c0: np.ndarray, c1: np.ndarray, n: int, r: int) -> np.ndarray:
    """I[j] = int_{Q+j} C1 grad phi_p for p = e1, e2, as an (n, n, 2, 2) array
    with columns indexed by the direction p. The constant-medium problems are
    solved exactly by FFT, one per direction."""
    grid = periodic_grid(n, r)
    solve = grid.constant_medium_solver(c0)
    origin_c1 = np.zeros((n, n, 2, 2))
    origin_c1[0, 0] = c1  # 1_Q C1: C1 on the origin cell, zero elsewhere
    out = np.zeros((n * n, 2, 2))
    for col, p in enumerate((E1, E2)):
        phi = solve(grid.corrector_rhs(origin_c1, p))
        flux = grid.element_gradient_integrals(phi) @ c1.T  # C1 grad phi per element
        for row in range(2):  # every cell has elements, so bincount gives n * n sums
            out[:, row, col] = np.bincount(grid.cell_of_element, weights=flux[:, row])
    return out.reshape(n, n, 2, 2)


@dataclass(frozen=True)
class SqsAuxiliary:
    """Per-offset flux integrals on the working box, and the origin cell's
    integral on an enlarged box of side max(3n, 24) used as a whole-space
    proxy (the gradient of phi decays fast, so periodic truncation there is
    a documented, testable approximation). `law` is the law they were
    solved for."""

    law: PerturbedPeriodic
    n: int
    r: int
    i_n: np.ndarray    # (n, n, 2, 2), offset-indexed
    i_inf: np.ndarray  # (2, 2), the origin cell of the enlarged box
    solves: int = 0


def sqs_auxiliary(law: PerturbedPeriodic, n: int, r: int) -> SqsAuxiliary:
    """Build the offset-indexed integrals for the selection conditions of
    `law`: C1 is its phase difference a1 - a0, and C0 = a0 + p C1 its mean
    medium, a convex combination of two SPD phases."""
    a0, a1 = law.phase_matrices()
    c1 = a1 - a0
    c0 = a0 + law.eta * c1
    i_n = _cell_flux_integrals(c0, c1, n, r)
    i_big = _cell_flux_integrals(c0, c1, max(3 * n, 24), r)
    return SqsAuxiliary(law=law, n=n, r=r, i_n=i_n, i_inf=i_big[0, 0].copy(), solves=AUX_SOLVES)


def pair_correlation_sums(x: np.ndarray) -> np.ndarray:
    """S[d] = sum_k x_k * x_{k+d} over the periodic lattice (via FFT)."""
    f = np.fft.fft2(x)
    return np.real(np.fft.ifft2(f * np.conj(f)))


def pair_form_sums(x: np.ndarray, form: np.ndarray) -> np.ndarray:
    """sum_{k, d} x_k x_{k+d} form[d] / n^2 for each (n, n) lattice of a
    (k, n, n) stack, with `form` an offset-indexed (n, n, 2, 2) array
    (form[d mod n]); shape (k, 2, 2). Every ordered pair of cells is
    counted, so an unordered pair at offset d enters once at d and once
    at -d."""
    n = x.shape[-1]
    return np.einsum("kab,abij->kij", pair_correlation_sums(x), form) / n ** 2


def sqs_condition_values(cfgs, aux: SqsAuxiliary) -> tuple[np.ndarray, np.ndarray]:
    """(first-moment values, second-moment residuals) of an iterable of
    configurations, as two arrays, ranked RANK_BLOCK configurations at a
    time with one stacked FFT and one contraction per block.

    The first value is the box average of the centered draws (exactly zero
    for balanced configurations); the second is the Frobenius norm, over both
    directions, of the mismatch between the empirical pair form and its
    i.i.d. infinite-volume target p(1 - p) i_inf.
    """
    pending = iter(cfgs)
    s1, s2 = [], []
    while block := list(islice(pending, RANK_BLOCK)):
        for cfg in block:
            if cfg.n != aux.n:
                raise GridMismatchError(
                    f"configuration n={cfg.n} does not match auxiliary n={aux.n}")
        p = np.array([cfg.p for cfg in block])[:, None, None]
        x = np.stack([cfg.draws for cfg in block]).astype(float) - p
        s1.append(x.sum(axis=(1, 2)) / aux.n ** 2)
        lhs = pair_form_sums(x, aux.i_n)
        mismatch = (lhs - p * (1.0 - p) * aux.i_inf).reshape(-1, 4)
        s2.append(np.sqrt(np.vecdot(mismatch, mismatch)))
    return np.concatenate(s1), np.concatenate(s2)
