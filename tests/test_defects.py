import numpy as np
import pytest

from randpde.defects import (_box_flux_excess, defect_coefficients,
                             defect_solve_count, sign_canonical_offsets)
from randpde.errors import ParameterError
from randpde.fields import PerturbedPeriodic

ID = np.eye(2)
LAW = PerturbedPeriodic(a_per=3 * ID, c_per=17 * ID, eta=0.5)


def test_zero_perturbation_gives_zero_coefficient():
    law = PerturbedPeriodic(a_per=3 * ID, c_per=0 * ID, eta=0.5)
    d = defect_coefficients(law, n=4, r=4)
    assert np.max(np.abs(d.a_1def)) <= 1e-10
    assert np.allclose(d.a_per_star, 3 * ID, atol=1e-10)


def test_one_defect_position_independent():
    e00, _ = _box_flux_excess(LAW, n=5, r=4, defect_cells=[(0, 0)])
    e23, _ = _box_flux_excess(LAW, n=5, r=4, defect_cells=[(2, 3)])
    scale = np.abs(e00).max()
    assert np.max(np.abs(e00 - e23)) <= 1e-8 * scale


def test_one_defect_converges_in_box_size():
    # measured truncation gap: 2.2% between n=5 and n=9 (r-independent),
    # 0.5% between n=9 and n=13; bound frozen with a small margin
    d5 = defect_coefficients(LAW, n=5, r=4)
    d9 = defect_coefficients(LAW, n=9, r=4)
    rel = np.abs(d5.a_1def - d9.a_1def).max() / np.abs(d9.a_1def).max()
    assert rel <= 0.025


def test_offset_catalog_counts_pairs_once():
    n = 6
    offsets = sign_canonical_offsets(n)
    seen = set()
    total_weight = 0.0
    for (off, w) in offsets:
        assert off not in seen
        seen.add(off)
        assert off[0] * off[0] + off[1] * off[1] <= (n / 2) ** 2 + 1e-9
        assert w in (0.5, 1.0)
        total_weight += w
    # sum over k of the weighted representatives counts each unordered pair
    # once: weights * n^2 must equal the number of pairs within the cutoff
    pair_count = 0
    for dx in range(n):
        for dy in range(n):
            if (dx, dy) == (0, 0):
                continue
            mx = dx - n if dx > n / 2 else dx
            my = dy - n if dy > n / 2 else dy
            if mx * mx + my * my <= (n / 2) ** 2 + 1e-9:
                pair_count += 1
    assert total_weight * n * n == pytest.approx(pair_count / 2 * n * n)


def test_two_defect_symmetry_map_matches_direct_solve():
    # isotropic material: the (0,1) pair is the 90-degree image of (1,0)
    e_10, _ = _box_flux_excess(LAW, n=4, r=4, defect_cells=[(0, 0), (1, 0)])
    e_01, _ = _box_flux_excess(LAW, n=4, r=4, defect_cells=[(0, 0), (0, 1)])
    rot = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.max(np.abs(e_01 - rot @ e_10 @ rot.T)) <= 1e-7 * np.abs(e_10).max()


def test_order_two_catalog_contents():
    d = defect_coefficients(LAW, n=4, r=2, order=2)
    assert d.order == 2
    assert set(d.a_2def) == set(d.pair_weights)
    assert len(d.a_2def) > 0
    # pair corrections are small relative to the one-defect coefficient
    for mat in d.a_2def.values():
        assert np.abs(mat).max() < np.abs(d.a_1def).max()


def test_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        defect_coefficients(LAW, n=1, r=2)
    with pytest.raises(ParameterError):
        defect_coefficients(LAW, n=4, r=2, order=3)


@pytest.mark.parametrize("a_per", [3 * ID, np.array([[3.0, 0.5], [0.5, 2.0]])])
@pytest.mark.parametrize("order", [1, 2])
def test_solve_count_matches_solves_made(a_per, order):
    # isotropic material: one solve per symmetry class; anisotropic: per offset
    law = PerturbedPeriodic(a_per=a_per, c_per=17 * ID, eta=0.5)
    d = defect_coefficients(law, n=4, r=2, order=order)
    assert defect_solve_count(law, 4, order) == d.solves
