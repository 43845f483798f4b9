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
from .errors import GridMismatchError, ParameterError
from .fields import Configuration, _as_symmetric_matrix
from .grid import periodic_grid

# Configurations that `sqs_condition_values` ranks per stacked FFT: a pool of
# thousands is ranked in blocks, so its transforms stay a few hundred kB.
RANK_BLOCK = 256


def _cell_flux_integrals(c0: np.ndarray, c1: np.ndarray, n: int,
                         r: int) -> tuple[np.ndarray, int]:
    """I[j] = int_{Q+j} C1 grad phi_p for p = e1, e2, as an (n, n, 2, 2) array
    with columns indexed by the direction p; plus the solve count. The
    constant-medium problems are solved exactly by FFT."""
    grid = periodic_grid(n, r)
    solve = grid.constant_medium_solver(c0)
    cell_of_elem = grid.elem_cell  # (cx, cy) arrays
    origin_c1 = np.zeros((n, n, 2, 2))
    origin_c1[0, 0] = c1  # 1_Q C1: C1 on the origin cell, zero elsewhere
    out = np.zeros((n, n, 2, 2))
    for col, p in enumerate((E1, E2)):
        phi = solve(grid.corrector_rhs(origin_c1, p))
        grads = grid.element_gradient_integrals(phi)
        flux = grads @ c1.T  # (n_elements, 2): C1 grad phi integrated per element
        np.add.at(out[:, :, 0, col], (cell_of_elem[0], cell_of_elem[1]), flux[:, 0])
        np.add.at(out[:, :, 1, col], (cell_of_elem[0], cell_of_elem[1]), flux[:, 1])
    return out, 2  # one FFT solve per direction


@dataclass(frozen=True)
class SqsAuxiliary:
    """Per-offset flux integrals on the working box and on an enlarged box
    of side max(3n, 24) used as a whole-space proxy (the gradient of phi
    decays fast, so periodic truncation there is a documented, testable
    approximation)."""

    n: int
    r: int
    i_n: np.ndarray        # (n, n, 2, 2), offset-indexed
    i_inf_box: np.ndarray  # (N, N, 2, 2) on the enlarged box of side N
    solves: int = 0

    def rhs_second_moment(self, var_x: float) -> np.ndarray:
        """Right-hand side of the second condition for i.i.d. centered draws."""
        return var_x * self.i_inf_box[0, 0]


def sqs_auxiliary(c0, c1, n: int, r: int) -> SqsAuxiliary:
    """Build the offset-indexed integrals for the selection conditions."""
    c0 = _as_symmetric_matrix(c0, "c0")
    c1 = np.asarray(c1, dtype=float)
    if c1.ndim == 0:
        c1 = float(c1) * np.eye(2)
    if np.linalg.eigvalsh(c0)[0] <= 0:
        raise ParameterError("c0 must be symmetric positive definite")
    i_n, s1 = _cell_flux_integrals(c0, c1, n, r)
    i_big, s2 = _cell_flux_integrals(c0, c1, max(3 * n, 24), r)
    return SqsAuxiliary(n=n, r=r, i_n=i_n, i_inf_box=i_big, solves=s1 + s2)


def pair_correlation_sums(x: np.ndarray) -> np.ndarray:
    """S[d] = sum_k x_k * x_{k+d} over the periodic lattice (via FFT)."""
    f = np.fft.fft2(x)
    return np.real(np.fft.ifft2(f * np.conj(f)))


def sqs_condition_values(cfgs, aux: SqsAuxiliary):
    """(first-moment value, second-moment residual) of a configuration, or
    two arrays of them for an iterable of configurations, which is ranked
    RANK_BLOCK configurations at a time with one stacked FFT and one
    contraction per block.

    The first value is the box average of the centered draws (exactly zero
    for balanced configurations); the second is the Frobenius norm, over both
    directions, of the mismatch between the empirical pair form and its
    i.i.d. infinite-volume target.
    """
    single = isinstance(cfgs, Configuration)
    pending = iter([cfgs] if single else cfgs)
    s1, s2 = [], []
    while block := list(islice(pending, RANK_BLOCK)):
        for cfg in block:
            if cfg.n != aux.n:
                raise GridMismatchError(
                    f"configuration n={cfg.n} does not match auxiliary n={aux.n}")
        p = np.array([cfg.p for cfg in block])[:, None, None]
        x = np.stack([cfg.draws for cfg in block]).astype(float) - p
        s1.append(x.sum(axis=(1, 2)) / aux.n ** 2)
        s = pair_correlation_sums(x)
        lhs = np.einsum("kab,abij->kij", s, aux.i_n) / aux.n ** 2
        mismatch = (lhs - aux.rhs_second_moment(p * (1.0 - p))).reshape(-1, 4)
        s2.append(np.sqrt(np.vecdot(mismatch, mismatch)))
    s1, s2 = np.concatenate(s1), np.concatenate(s2)
    return (float(s1[0]), float(s2[0])) if single else (s1, s2)
