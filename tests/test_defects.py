import numpy as np
import pytest

from randpde.defects import (_box_flux_excess, defect_coefficients,
                             defect_solve_count, pair_catalog)
from randpde.errors import ParameterError
from randpde.fields import PerturbedPeriodic
from randpde.sqs import pair_form_sums

ID = np.eye(2)
LAW = PerturbedPeriodic(a_per=3 * ID, c_per=17 * ID, eta=0.5)
ANISO = PerturbedPeriodic(a_per=np.array([[3.0, 0.5], [0.5, 2.0]]),
                          c_per=np.array([[10.0, -1.0], [-1.0, 6.0]]), eta=0.3)
LAWS = {"isotropic": LAW, "anisotropic": ANISO}


@pytest.fixture(scope="module")
def catalogs():
    # order-2 coefficients at n = 4..7 on both laws; even n has self-inverse
    # offsets (components n/2)
    return {(name, n): defect_coefficients(law, n=n, r=2, order=2)
            for name, law in LAWS.items() for n in (4, 5, 6, 7)}


def test_zero_perturbation_gives_zero_coefficient():
    law = PerturbedPeriodic(a_per=3 * ID, c_per=0 * ID, eta=0.5)
    d = defect_coefficients(law, n=4, r=4)
    assert np.max(np.abs(d.a_1def)) <= 1e-10


def test_one_defect_position_independent():
    (e00, e23), _ = _box_flux_excess(LAW, n=5, r=4, defect_sets=[[(0, 0)], [(2, 3)]])
    scale = np.abs(e00).max()
    assert np.max(np.abs(e00 - e23)) <= 1e-8 * scale


def test_one_defect_converges_in_box_size():
    # measured truncation gap: 2.2% between n=5 and n=9 (r-independent),
    # 0.5% between n=9 and n=13; bound frozen with a small margin
    d5 = defect_coefficients(LAW, n=5, r=4)
    d9 = defect_coefficients(LAW, n=9, r=4)
    rel = np.abs(d5.a_1def - d9.a_1def).max() / np.abs(d9.a_1def).max()
    assert rel <= 0.025


@pytest.mark.parametrize("name", sorted(LAWS))
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_half_pair_form_counts_each_unordered_pair_once(catalogs, name, n):
    # 1/2 pair_form_sums against the explicit sum over unordered cell pairs
    # {k, l} within distance n/2 of B_k B_l a_2def[l - k] / n^2
    a_2def = catalogs[name, n].a_2def
    rng = np.random.default_rng(n)
    draws = rng.integers(0, 2, size=(3, n, n)).astype(float)
    cells = [(kx, ky) for kx in range(n) for ky in range(n)]
    for b, form in zip(draws, 0.5 * pair_form_sums(draws, a_2def)):
        direct = np.zeros((2, 2))
        for i, (kx, ky) in enumerate(cells):
            for lx, ly in cells[i + 1:]:
                dx, dy = (lx - kx) % n, (ly - ky) % n
                if min(dx, n - dx) ** 2 + min(dy, n - dy) ** 2 <= n * n / 4:
                    direct += b[kx, ky] * b[lx, ly] * a_2def[dx, dy]
        assert np.max(np.abs(form - direct / n ** 2)) <= 1e-12


@pytest.mark.parametrize("name", sorted(LAWS))
def test_pair_corrections_are_even_in_the_offset(catalogs, name):
    # the pair {0, -d} is a translate of {0, d}: for an anisotropic law the
    # tensor is d's bit for bit; an isotropic law maps the solved class by a
    # lattice symmetry, which may differ from d's by round-off
    for n in (4, 5, 6, 7):
        a_2def = catalogs[name, n].a_2def
        mirrored = a_2def[-np.arange(n) % n][:, -np.arange(n) % n]
        if name == "anisotropic":
            assert np.array_equal(mirrored, a_2def)
        else:
            assert np.max(np.abs(mirrored - a_2def)) <= 1e-14 * np.abs(a_2def).max()


def test_two_defect_symmetry_map_matches_direct_solve():
    # isotropic material: the (0,1) pair is the 90-degree image of (1,0)
    (e_10, e_01), _ = _box_flux_excess(LAW, n=4, r=4,
                                       defect_sets=[[(0, 0), (1, 0)], [(0, 0), (0, 1)]])
    rot = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.max(np.abs(e_01 - rot @ e_10 @ rot.T)) <= 1e-7 * np.abs(e_10).max()


def test_order_two_catalog_contents():
    n = 4
    assert defect_coefficients(LAW, n=n, r=2).a_2def is None
    d = defect_coefficients(LAW, n=n, r=2, order=2)
    assert d.order == 2
    assert d.a_2def.shape == (n, n, 2, 2)
    # filled at every catalog offset, at d and -d, and zero elsewhere
    filled = {(dx % n, dy % n) for (dx, dy), _ in pair_catalog(LAW, n)}
    assert {(dx, dy) for dx in range(n) for dy in range(n)
            if d.a_2def[dx, dy].any()} == filled
    assert (0, 0) not in filled and (1, 0) in filled and (n - 1, 0) in filled
    # pair corrections are small relative to the one-defect coefficient
    assert np.abs(d.a_2def).max() < np.abs(d.a_1def).max()


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


@pytest.mark.parametrize("a_per", [3 * ID, np.array([[3.0, 0.5], [0.5, 2.0]])])
def test_batched_catalog_matches_one_field_solves(a_per, monkeypatch):
    # the one-defect field and every pair class go through one batched call
    # (here in chunks of 3 fields); each coefficient keeps the bits of its
    # own one-field solve
    from randpde import correctors
    from randpde.correctors import homogenize
    from randpde.defects import _defect_field, _find_d4
    law = PerturbedPeriodic(a_per=a_per, c_per=17 * ID, eta=0.5)
    n, r = 4, 2
    monkeypatch.setattr(correctors, "CHUNK_DOFS", 3 * (n * r) ** 2)
    d = defect_coefficients(law, n=n, r=r, order=2)

    def excess(cells):
        return n * n * (homogenize(_defect_field(law, n, cells), r)[0] - law.a_per)
    a_1def = excess([(0, 0)])
    assert np.array_equal(d.a_1def, a_1def)
    for off, key in pair_catalog(law, n):
        rot = _find_d4(key, off, n)
        assert np.array_equal(d.a_2def[off[0] % n, off[1] % n],
                              rot @ (excess([(0, 0), key]) - 2.0 * a_1def) @ rot.T)
    assert d.solves == defect_solve_count(law, n, 2)
