"""Defect cell problems: the offline coefficients behind the control variate.

The perturbed-periodic law differs from the unperturbed material on Bernoulli
cells ("defects"). Solving the periodic problem with exactly one defect (and,
for the second order, with two defects at a given offset) yields deterministic
expansion coefficients; a cheap surrogate for the homogenized tensor of any
configuration is then assembled from per-cell occupancies, and its expectation
is analytically available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correctors import homogenize_fields
from .errors import ParameterError
from .fields import CoefficientField, PerturbedPeriodic

# The 8 lattice symmetries of the square. -I comes right after the identity:
# it maps an offset to its negative while leaving every tensor unchanged, so
# a pair {0, -d}, the translate of {0, d}, takes d's tensor bit for bit.
_D4 = [np.array(m, dtype=int) for m in (
    [[1, 0], [0, 1]], [[-1, 0], [0, -1]], [[-1, 0], [0, 1]], [[1, 0], [0, -1]],
    [[0, 1], [1, 0]], [[0, -1], [1, 0]], [[0, 1], [-1, 0]], [[0, -1], [-1, 0]])]


def _is_isotropic(a: np.ndarray) -> bool:
    return abs(a[0, 1]) < 1e-14 and abs(a[0, 0] - a[1, 1]) < 1e-14


def _minimal_offset(dx: int, dy: int, n: int) -> tuple[int, int]:
    """Offset representative with components in (-n/2, n/2]."""
    mx = dx % n
    my = dy % n
    mx = mx - n if mx > n / 2 else mx
    my = my - n if my > n / 2 else my
    return mx, my


@dataclass(frozen=True)
class DefectCoefficients:
    """Offline expansion coefficients of the perturbed-periodic law at size n
    and resolution r. The unperturbed material is constant, so its
    correctors vanish and its homogenized tensor is `law.a_per` itself.

    `a_2def[d mod n]` is the pair correction at offset d: the same tensor at
    d and -d for every nonzero d within distance n/2, zero elsewhere (offset
    0 included), and `None` at order 1."""

    law: PerturbedPeriodic
    n: int
    r: int
    order: int
    a_1def: np.ndarray              # one-defect contribution (columns = directions)
    a_2def: np.ndarray | None = None  # (n, n, 2, 2) pair corrections, offset-indexed
    solves: int = 0


def _defect_field(law: PerturbedPeriodic, n: int, defect_cells) -> CoefficientField:
    cells = np.broadcast_to(law.a_per, (n, n, 2, 2)).copy()
    for (kx, ky) in defect_cells:
        cells[kx % n, ky % n] = law.a_per + law.c_per
    return CoefficientField(n=n, cells=cells)


def _box_flux_excess(law: PerturbedPeriodic, n: int, r: int,
                     defect_sets) -> tuple[np.ndarray, int]:
    """int_{Q_N} [A_def (e_i + grad w_i) - A_per (e_i + grad w_i^0)] per
    direction, one (2, 2) matrix per set of defect cells, as a (k, 2, 2)
    array; plus the solve count. All sets go through one batched call.

    With the (constant) unperturbed material the reference corrector w^0
    vanishes, so the subtracted term is just A_per integrated over the box.
    """
    fields = [_defect_field(law, n, cells) for cells in defect_sets]
    tensors = np.array([tensor for tensor, _ in homogenize_fields(fields, r)])
    return n * n * (tensors - law.a_per), 2 * len(fields)


def pair_catalog(law: PerturbedPeriodic, n: int):
    """[(offset, solved offset)] for every nonzero pair offset on the n-torus
    within distance n/2, components in (-n/2, n/2]. The solved offset is the
    one whose cell problem gives this entry: the sign-canonical one of
    {d, -d}, or one representative (max|.|, min|.|) per lattice-symmetry
    class when the material is isotropic."""
    isotropic = _is_isotropic(law.a_per) and _is_isotropic(law.c_per)
    out = []
    for dx in range(n):
        for dy in range(n):
            mx, my = _minimal_offset(dx, dy, n)
            if (mx, my) == (0, 0) or mx * mx + my * my > n * n / 4 + 1e-12:
                continue
            if isotropic:
                solved = (max(abs(mx), abs(my)), min(abs(mx), abs(my)))
            else:
                solved = _minimal_offset(*min((dx, dy), (-dx % n, -dy % n)), n)
            out.append(((mx, my), solved))
    return out


def defect_solve_count(law: PerturbedPeriodic, n: int, order: int) -> int:
    """PDE solves that `defect_coefficients` makes: 2 for one defect and, at
    order 2, 2 per solved pair offset."""
    solved = {key for _, key in pair_catalog(law, n)} if order == 2 else set()
    return 2 + 2 * len(solved)


def defect_coefficients(law: PerturbedPeriodic, n: int, r: int,
                        order: int = 1) -> DefectCoefficients:
    """Solve the one-defect and (order 2) two-defect cell problems by CG at
    tolerance 1e-9.

    The one-defect coefficient is independent of the defect position by
    periodicity, so the defect sits on cell (0, 0). The two-defect catalog
    covers pair offsets up to Euclidean distance n/2 on the periodic
    lattice, solved once per solved offset of `pair_catalog` and mapped to
    each offset by conjugation with a lattice symmetry.
    """
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    if order not in (1, 2):
        raise ParameterError(f"order must be 1 or 2, got {order}")

    catalog = pair_catalog(law, n) if order == 2 else []
    keys = list(dict.fromkeys(key for _, key in catalog))
    excess, solves = _box_flux_excess(law, n, r, [[(0, 0)]] + [[(0, 0), key] for key in keys])
    a_1def = excess[0]
    class_values = {key: e2_val - 2.0 * a_1def for key, e2_val in zip(keys, excess[1:])}
    a_2def = np.zeros((n, n, 2, 2)) if order == 2 else None
    for off, key in catalog:
        rot = _find_d4(key, off, n)
        a_2def[off[0] % n, off[1] % n] = rot @ class_values[key] @ rot.T
    return DefectCoefficients(law=law, n=n, r=r, order=order, a_1def=a_1def,
                              a_2def=a_2def, solves=solves)


def _find_d4(canonical: tuple[int, int], target: tuple[int, int], n: int) -> np.ndarray:
    """The first lattice symmetry in `_D4` that maps `canonical` to `target`
    modulo n: on even n, (n/2, -1) is -(n/2, 1) and takes -I."""
    v = np.array(canonical, dtype=int)
    t = np.array(target, dtype=int)
    for rot in _D4:
        if not np.any((rot @ v - t) % n):
            return rot.astype(float)
    raise ParameterError(f"offset {target} is not a lattice image of {canonical}")
