"""Defect cell problems: the offline coefficients behind the control variate.

The perturbed-periodic law differs from the unperturbed material on Bernoulli
cells ("defects"). Solving the periodic problem with exactly one defect (and,
for the second order, with two defects at a given offset) yields deterministic
expansion coefficients; a cheap surrogate for the homogenized tensor of any
configuration is then assembled from per-cell occupancies, and its expectation
is analytically available.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .correctors import E1, E2, solve_correctors
from .errors import ParameterError
from .fields import CoefficientField, PerturbedPeriodic
from .grid import periodic_grid

# The 8 lattice symmetries of the square (used only for isotropic materials).
_D4 = [np.array(m, dtype=int) for m in (
    [[1, 0], [0, 1]], [[-1, 0], [0, 1]], [[1, 0], [0, -1]], [[-1, 0], [0, -1]],
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


def sign_canonical_offsets(n: int):
    """Distinct unordered pair offsets on the n-torus within distance n/2:
    one representative per {delta, -delta (mod n)} class, paired
    with the weight 1/2 for self-inverse offsets (delta == -delta mod n),
    so that summing B_k * B_{k+delta} over all k and all returned offsets
    with these weights counts every unordered defect pair exactly once."""
    cutoff = n / 2
    seen = set()
    out = []
    for dx in range(n):
        for dy in range(n):
            if dx == 0 and dy == 0:
                continue
            neg = ((n - dx) % n, (n - dy) % n)
            key = min((dx, dy), neg)
            if key in seen:
                continue
            seen.add(key)
            mx, my = _minimal_offset(*key, n)
            if mx * mx + my * my > cutoff * cutoff + 1e-12:
                continue
            out.append(((mx, my), 0.5 if (dx, dy) == neg else 1.0))
    return out


@dataclass(frozen=True)
class DefectCoefficients:
    """Offline expansion coefficients of the perturbed-periodic law at size n."""

    law: PerturbedPeriodic
    n: int
    r: int
    order: int
    a_per_star: np.ndarray          # homogenized tensor of the unperturbed material
    a_1def: np.ndarray              # one-defect contribution (columns = directions)
    a_2def: dict = field(default_factory=dict)  # offset -> pair correction matrix
    pair_weights: dict = field(default_factory=dict)
    solves: int = 0


def _defect_field(law: PerturbedPeriodic, n: int, defect_cells) -> CoefficientField:
    cells = np.broadcast_to(law.a_per, (n, n, 2, 2)).copy()
    for (kx, ky) in defect_cells:
        cells[kx % n, ky % n] = law.a_per + law.c_per
    return CoefficientField(n=n, cells=cells)


def _box_flux_excess(law: PerturbedPeriodic, n: int, r: int,
                     defect_cells) -> tuple[np.ndarray, int]:
    """int_{Q_N} [A_def (e_i + grad w_i) - A_per (e_i + grad w_i^0)] per direction.

    With the (constant) unperturbed material the reference corrector w^0
    vanishes, so the subtracted term is just A_per integrated over the box.
    """
    fld = _defect_field(law, n, defect_cells)
    grid = periodic_grid(n, r)
    out = np.zeros((2, 2))
    ws = solve_correctors(fld, (E1, E2), r)
    for j, w in enumerate(ws):
        out[:, j] = n * n * (grid.average_flux(fld.cells, w.values, w.p) - law.a_per @ w.p)
    return out, len(ws)


def pair_catalog(law: PerturbedPeriodic, n: int):
    """[(offset, weight, solved offset)] of the two-defect catalog within
    distance n/2. The solved offset is the one whose cell problem is solved
    for this entry: the offset itself, or one representative per
    lattice-symmetry class when the material is isotropic."""
    isotropic = _is_isotropic(law.a_per) and _is_isotropic(law.c_per)

    def solved(off):
        if not isotropic:
            return off
        return (max(abs(off[0]), abs(off[1])), min(abs(off[0]), abs(off[1])))
    return [(off, w, solved(off)) for off, w in sign_canonical_offsets(n)]


def defect_solve_count(law: PerturbedPeriodic, n: int, order: int) -> int:
    """PDE solves that `defect_coefficients` makes: 2 for one defect and, at
    order 2, 2 per solved pair offset."""
    solved = {key for _, _, key in pair_catalog(law, n)} if order == 2 else set()
    return 2 + 2 * len(solved)


def defect_coefficients(law: PerturbedPeriodic, n: int, r: int,
                        order: int = 1) -> DefectCoefficients:
    """Solve the one-defect and (order 2) two-defect cell problems by CG at
    tolerance 1e-9.

    The one-defect coefficient is independent of the defect position by
    periodicity, so the defect sits on cell (0, 0). The two-defect catalog
    covers pair offsets up to Euclidean distance n/2 on the periodic
    lattice, solved once per symmetry class when the material is isotropic
    and mapped back by conjugation.
    """
    if not isinstance(law, PerturbedPeriodic):
        raise ParameterError("defect coefficients are defined for the perturbed-periodic law")
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    if order not in (1, 2):
        raise ParameterError(f"order must be 1 or 2, got {order}")

    # The unperturbed material is constant, so its correctors vanish and its
    # homogenized tensor is the material itself.
    a_per_star = law.a_per.copy()
    a_1def, solves = _box_flux_excess(law, n, r, [(0, 0)])

    a_2def: dict = {}
    weights: dict = {}
    if order == 2:
        class_values: dict = {}
        for (off, w, key) in pair_catalog(law, n):
            weights[off] = w
            if key not in class_values:
                e2_val, used = _box_flux_excess(law, n, r, [(0, 0), key])
                solves += used
                class_values[key] = e2_val - 2.0 * a_1def
            rot = _find_d4(key, off)
            a_2def[off] = rot @ class_values[key] @ rot.T
    return DefectCoefficients(law=law, n=n, r=r, order=order, a_per_star=a_per_star,
                              a_1def=a_1def, a_2def=a_2def, pair_weights=weights,
                              solves=solves)


def _find_d4(canonical: tuple[int, int], target: tuple[int, int]) -> np.ndarray:
    v = np.array(canonical, dtype=int)
    t = np.array(target, dtype=int)
    for rot in _D4:
        if np.array_equal(rot @ v, t):
            return rot.astype(float)
    raise ParameterError(f"offset {target} is not a lattice image of {canonical}")
