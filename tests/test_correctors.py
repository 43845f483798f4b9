import warnings
from functools import partial

import numpy as np
import pytest

from randpde.correctors import (E1, E2, check_voigt_reuss, energy_tensor,
                                homogenize, homogenized_tensor, solve_corrector)
from randpde.errors import GridMismatchError, ResolutionWarning, SolverError
from randpde.fields import Checkerboard, CoefficientField, realize_field, sample_configuration

ID = np.eye(2)


def constant_field(n, c):
    return CoefficientField(n=n, cells=np.broadcast_to(c * ID, (n, n, 2, 2)).copy())


def laminate_field(values):
    """Stripes varying with the first coordinate only."""
    n = len(values)
    cells = np.zeros((n, n, 2, 2))
    for kx, v in enumerate(values):
        cells[kx, :] = v * ID
    return CoefficientField(n=n, cells=cells)


def harmonic_mean(values):
    values = np.asarray(values, dtype=float)
    return len(values) / np.sum(1.0 / values)


def test_constant_field_corrector_vanishes():
    f = constant_field(3, 5.0)
    w = solve_corrector(f, E1, r=4)
    assert np.max(np.abs(w.values)) <= 1e-10


def test_constant_field_tensor_identity():
    f = constant_field(3, 5.0)
    tensor, _ = homogenize(f, r=4)
    assert np.max(np.abs(tensor - 5.0 * ID)) <= 1e-10


def test_laminate_orthogonal_direction_trivial():
    f = laminate_field([3.0, 20.0, 3.0, 20.0])
    w = solve_corrector(f, E2, r=4)
    assert np.max(np.abs(w.values)) <= 1e-10


@pytest.mark.parametrize("r", [4, 8])
def test_laminate_harmonic_arithmetic_means(r):
    values = [3.0, 20.0, 3.0, 20.0]
    f = laminate_field(values)
    tensor, _ = homogenize(f, r=r, tol=1e-11)
    assert tensor[0, 0] == pytest.approx(harmonic_mean(values), rel=1e-6)
    assert tensor[1, 1] == pytest.approx(np.mean(values), rel=1e-6)
    assert abs(tensor[0, 1]) < 1e-8


def test_flux_tensor_matches_energy_tensor():
    law = Checkerboard(3.0, 20.0)
    f = realize_field(law, sample_configuration(law, 6, seed=4, index=0))
    tensor, ws = homogenize(f, r=4, tol=1e-11)
    energy = energy_tensor(f, ws)
    assert np.max(np.abs(tensor - energy)) <= 1e-8 * np.abs(tensor).max()


def test_tensor_symmetry():
    law = Checkerboard(3.0, 20.0)
    f = realize_field(law, sample_configuration(law, 8, seed=14, index=2))
    tensor, _ = homogenize(f, r=4, tol=1e-11)
    assert np.linalg.norm(tensor - tensor.T) <= 1e-8 * np.linalg.norm(tensor)


def test_voigt_reuss_bounds_hold():
    law = Checkerboard(3.0, 20.0)
    for i in range(5):
        f = realize_field(law, sample_configuration(law, 6, seed=8, index=i))
        tensor, _ = homogenize(f, r=4)
        assert check_voigt_reuss(f, tensor)
        lo, hi = f.voigt_reuss_bounds()
        eigs = np.linalg.eigvalsh(tensor)
        assert lo - 1e-8 <= eigs[0] and eigs[1] <= hi + 1e-8


def test_refinement_monotone_toward_limit():
    law = Checkerboard(3.0, 20.0)
    f = realize_field(law, sample_configuration(law, 4, seed=31, index=0))
    a4 = homogenize(f, r=4)[0]
    a8 = homogenize(f, r=8)[0]
    a16 = homogenize(f, r=16)[0]
    # diagonal entries are energy minima over nested spaces: decreasing in r
    assert a8[0, 0] <= a4[0, 0] + 1e-12
    assert a16[0, 0] <= a8[0, 0] + 1e-12
    assert abs(a16[0, 0] - a8[0, 0]) <= abs(a8[0, 0] - a4[0, 0])


def test_cg_and_direct_agree():
    law = Checkerboard(3.0, 20.0)
    f = realize_field(law, sample_configuration(law, 6, seed=1, index=0))
    a_cg = homogenize(f, r=4, method="cg", tol=1e-11)[0]
    a_dir = homogenize(f, r=4, method="direct")[0]
    assert np.max(np.abs(a_cg - a_dir)) <= 1e-8


def test_direct_method_factorizes_once_per_stiffness(monkeypatch):
    import randpde.grid as grid_module
    law = Checkerboard(3.0, 20.0)
    f = realize_field(law, sample_configuration(law, 4, seed=1, index=0))
    grid = grid_module.periodic_grid(4, 4)
    K = grid.assemble_stiffness(f.cells)
    # each call factorizes K afresh
    fresh = [grid_module.solve_singular_system(K, grid.corrector_rhs(f.cells, p),
                                               method="direct")[0] for p in (E1, E2)]
    calls = []
    splu = grid_module.spla.splu
    monkeypatch.setattr(grid_module.spla, "splu", lambda A: calls.append(A) or splu(A))
    _, ws = homogenize(f, r=4, method="direct")
    assert len(calls) == 1
    for w, x in zip(ws, fresh):
        assert np.array_equal(w.values, x)


def test_fft_pcg_matches_direct_on_anisotropic_field():
    rng = np.random.default_rng(7)
    n = 5
    lower = rng.uniform(-1.5, 1.5, size=(n, n, 2, 2)) * np.tril(np.ones((2, 2)))
    cells = lower @ np.swapaxes(lower, -1, -2) + 0.5 * ID
    f = CoefficientField(n=n, cells=cells)
    for p in (E1, E2, np.array([0.6, -0.8])):
        w_cg = solve_corrector(f, p, r=4, tol=1e-12)
        w_dir = solve_corrector(f, p, r=4, method="direct")
        assert np.max(np.abs(w_cg.values - w_dir.values)) <= 1e-8
    a_cg = homogenize(f, r=4, tol=1e-12)[0]
    a_dir = homogenize(f, r=4, method="direct")[0]
    assert np.max(np.abs(a_cg - a_dir)) <= 1e-8


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_fft_pcg_iterations_flat_in_box_size(n):
    # Jacobi CG needs 295 iterations at n = 10 and grows like n*r
    law = Checkerboard(3.0, 20.0)
    f = realize_field(law, sample_configuration(law, n, seed=1, index=0))
    _, (w1, w2) = homogenize(f, r=8)
    assert max(w1.iterations, w2.iterations) <= 30


def test_constant_medium_preconditioner_is_exact():
    from randpde.grid import periodic_grid, solve_singular_system
    a = np.array([[4.0, 1.5], [1.5, 2.0]])
    grid = periodic_grid(4, 3)
    K = grid.assemble_stiffness(np.broadcast_to(a, (4, 4, 2, 2)).copy())
    b = np.random.default_rng(2).normal(size=grid.ndof)
    x, iterations, residual = solve_singular_system(
        K, b, tol=1e-10, preconditioner=grid.constant_medium_solver(a))
    assert iterations == 1 and residual <= 1e-10
    x_dir = solve_singular_system(K, b, method="direct")[0]
    assert np.max(np.abs(x - x_dir)) <= 1e-10 * np.abs(x_dir).max()


def test_solver_error_carries_diagnostics(monkeypatch):
    # both legs run the one CG loop: the periodic corrector solve and the
    # penalized reference solve, capped here at 3 iterations
    from randpde import grid, poisson
    from randpde.grid import cg_spd
    from randpde.perforations import NoPerforations
    law = Checkerboard(3.0, 20.0)
    f = realize_field(law, sample_configuration(law, 8, seed=2, index=0))
    for module in (grid, poisson):
        monkeypatch.setattr(module, "cg_spd", partial(cg_spd, maxiter=3))
    legs = (lambda: solve_corrector(f, E1, r=8),
            lambda: poisson.reference_solve(NoPerforations(), lambda x, y: np.ones_like(x), 64))
    for leg in legs:
        with pytest.raises(SolverError) as err:
            leg()
        assert err.value.iterations == 3
        assert err.value.residual > 0


def test_galerkin_residual_below_tolerance():
    from randpde.grid import periodic_grid
    law = Checkerboard(3.0, 20.0)
    f = realize_field(law, sample_configuration(law, 6, seed=6, index=0))
    w = solve_corrector(f, E1, r=4, tol=1e-9)
    grid = periodic_grid(6, 4)
    K = grid.assemble_stiffness(f.cells)
    b = grid.corrector_rhs(f.cells, E1)
    assert np.linalg.norm(K @ w.values - b) <= 1e-9 * np.linalg.norm(b)
    assert abs(w.values.mean()) < 1e-12


def test_grid_mismatch_rejected():
    f6 = constant_field(6, 5.0)
    f4 = constant_field(4, 5.0)
    w = solve_corrector(f6, E1, r=2)
    with pytest.raises(GridMismatchError):
        homogenized_tensor(f4, (w,))


@pytest.mark.parametrize("n,r", [(1, 1), (2, 1), (6, 8), (10, 8), (20, 4)])
def test_cached_stiffness_pattern_matches_coo_assembly(n, r):
    # the per-grid CSR pattern with bincount over the entry slots gives the
    # same arrays as a fresh COO build and conversion of every sample
    import scipy.sparse as sp
    from randpde.grid import PeriodicGrid, element_stiffness
    grid = PeriodicGrid(n, r)
    rows = np.repeat(grid.elem_nodes, 4, axis=1).ravel()
    cols = np.tile(grid.elem_nodes, (1, 4)).ravel()
    rng = np.random.default_rng(n * r)
    for k in range(10):
        if k % 2:
            cells = rng.choice([3.0, 20.0], size=(n, n))[..., None, None] * ID
        else:
            root = rng.uniform(-1.0, 1.0, size=(n, n, 2, 2))
            cells = root @ root.swapaxes(-1, -2) + 0.1 * ID
        a = grid.element_coefficients(cells)
        ke = element_stiffness(a[:, 0, 0], a[:, 1, 1], a[:, 0, 1])
        coo = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(grid.ndof, grid.ndof)).tocsr()
        K = grid.assemble_stiffness(cells)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(K, name), getattr(coo, name)), (k, name)


@pytest.mark.parametrize("n,r", [(1, 1), (6, 8), (5, 3)])
def test_corrector_rhs_matches_per_element_product(n, r):
    # A p taken once per cell and gathered gives the bits of the product
    # taken per element, on isotropic and anisotropic fields
    from randpde.grid import GX, GY, PeriodicGrid
    grid = PeriodicGrid(n, r)
    rng = np.random.default_rng(n + r)
    root = rng.uniform(-1.0, 1.0, size=(n, n, 2, 2))
    fields = (rng.choice([3.0, 20.0], size=(n, n))[..., None, None] * ID,
              root @ root.swapaxes(-1, -2) + 0.1 * ID)
    for cells in fields:
        for p in (E1, E2, np.array([0.3, -1.7])):
            ap = grid.element_coefficients(cells) @ p
            fe = -0.5 * grid.h * (np.outer(ap[:, 0], GX) + np.outer(ap[:, 1], GY))
            oracle = np.bincount(grid.elem_nodes.ravel(), weights=fe.ravel(),
                                 minlength=grid.ndof)
            assert np.array_equal(grid.corrector_rhs(cells, p), oracle), p


def test_assemble_matches_dense_sum():
    # stacks of k = 1..5 with repeated dofs, int64 and int32 dof arrays, and
    # a (k, k) block shared by every element, against a dense scatter-add
    from randpde.grid import assemble
    rng = np.random.default_rng(4)
    n = 13
    stacks, dense = [], np.zeros((n, n))
    for k in range(1, 6):
        dofs = rng.integers(0, n, size=(7, k)).astype(np.int64 if k % 2 else np.int32)
        dofs[0] = dofs[0, 0]  # one element with every dof repeated
        blocks = rng.normal(size=(7, k, k)) if k != 3 else rng.normal(size=(k, k))
        for d, b in zip(dofs, np.broadcast_to(blocks, (7, k, k))):
            np.add.at(dense, (d[:, None], d[None, :]), b)
        stacks.append((dofs, blocks))
    K = assemble(stacks, n)
    assert K.shape == (n, n) and K.indices.dtype == np.int32
    assert np.allclose(K.toarray(), dense, rtol=0, atol=1e-12)
    assert assemble([(np.zeros((0, 4), dtype=int), np.ones((4, 4)))], n).nnz == 0


def test_checkerboard_mean_consistent_with_duality():
    # Duality closed form sqrt(alpha*beta) = sqrt(60). The r = 8 grid carries
    # a small positive resolution bias from the cell-corner singularities, so
    # the per-realization estimate is Richardson-extrapolated in the mesh
    # (2*A(r=8) - A(r=4) cancels the leading term) before the interval test.
    # The solves take the estimators' FFT-preconditioned CG; the direct path
    # is compared with it in the tests above.
    law = Checkerboard(3.0, 20.0)
    vals = []
    for i in range(60):
        f = realize_field(law, sample_configuration(law, 24, seed=321, index=i))
        a8 = homogenize(f, r=8)[0][0, 0]
        a4 = homogenize(f, r=4)[0][0, 0]
        vals.append(2.0 * a8 - a4)
    v = np.array(vals)
    half = 1.96 * v.std(ddof=1) / np.sqrt(len(v))
    assert abs(v.mean() - np.sqrt(60.0)) <= half


# ---------------------------------------------------------------------------
# Batched corrector solves: a (k, N) stack in one CG loop gives every row the
# bits and the iteration count of its own solve.

def _vector_cg(K, b, tol, preconditioner=None, centre=False):
    """The CG loop as it ran on one right-hand side before stacks: scalar
    step lengths, `np.linalg.norm`, `r.mean()`. The oracle for the vector
    path of `cg_spd`."""
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    if preconditioner is None:
        inv_diag = 1.0 / K.diagonal()
        preconditioner = lambda r: inv_diag * r
    x = np.zeros_like(b)
    r = b.copy()
    z = preconditioner(r)
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, 10000 + int(50 * np.sqrt(K.shape[0])) + 1):
        q = K @ p
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
        if centre:
            r -= r.mean()
        if float(np.linalg.norm(r)) <= tol * bnorm:
            return x, it
        z = preconditioner(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise AssertionError("oracle CG did not converge")


def _mixed_stack(n=5, r=4):
    """Cells of fields whose correctors converge at different iterations,
    the last with an exactly zero load: a perturbed-periodic sample with no
    defect is the constant a_per, and its corrector load cancels node by
    node."""
    from randpde.fields import PerturbedPeriodic
    rng = np.random.default_rng(11)
    root = rng.uniform(-1.5, 1.5, size=(n, n, 2, 2)) * np.tril(np.ones((2, 2)))
    law = PerturbedPeriodic(a_per=3 * ID, c_per=17 * ID, eta=0.5)
    fields = [constant_field(n, 5.0),
              realize_field(Checkerboard(3.0, 20.0), sample_configuration(Checkerboard(3.0, 20.0), n, 1, 0)),
              realize_field(Checkerboard(1.0, 100.0), sample_configuration(Checkerboard(1.0, 100.0), n, 2, 0)),
              CoefficientField(n=n, cells=root @ root.swapaxes(-1, -2) + 0.5 * ID),
              CoefficientField(n=n, cells=np.broadcast_to(law.a_per, (n, n, 2, 2)).copy())]
    return fields, np.stack([f.cells for f in fields])


def test_batched_cg_matches_per_row_solves():
    from randpde.grid import cg_spd, periodic_grid
    n, r = 5, 4
    fields, cells = _mixed_stack(n, r)
    grid = periodic_grid(n, r)
    K = grid.assemble_stiffness(cells)
    precondition = grid.constant_medium_solver(cells.mean(axis=(1, 2)))
    for p in (E1, E2):
        b = grid.corrector_rhs(cells, p)
        b -= b.mean(axis=-1, keepdims=True)
        assert not b[-1].any()  # the zero row
        x, iterations, residual = cg_spd(K, b, 1e-9, preconditioner=precondition, centre=True)
        assert x.shape == b.shape and iterations.shape == residual.shape == (len(fields),)
        assert iterations[-1] == 0 and residual[-1] == 0.0 and not x[-1].any()
        assert len(set(iterations[:-1].tolist())) >= 3  # rows leave at different iterations
        for row, f in enumerate(fields):
            K1 = grid.assemble_stiffness(f.cells)
            solve1 = grid.constant_medium_solver(f.cells.mean(axis=(0, 1)))
            x1, it1, res1 = cg_spd(K1, b[row], 1e-9, preconditioner=solve1, centre=True)
            assert np.array_equal(x[row], x1) and iterations[row] == it1, (p, row)
            assert residual[row] == res1
            # and the vector path runs the arithmetic of the loop before stacks
            x0, it0 = _vector_cg(K1, b[row], 1e-9, solve1, centre=True)
            assert np.array_equal(x1, x0) and it1 == it0, (p, row)


def test_batched_cg_default_preconditioner_and_error():
    # Jacobi on a stack picks each row's own diagonal; a cap reached by one
    # row raises with the worst row's residual
    from randpde.grid import cg_spd, periodic_grid
    n, r = 4, 2
    fields, cells = _mixed_stack(n, r)
    grid = periodic_grid(n, r)
    K = grid.assemble_stiffness(cells)
    b = grid.corrector_rhs(cells, E1)
    b -= b.mean(axis=-1, keepdims=True)
    x, iterations, _ = cg_spd(K, b, 1e-9, centre=True)
    for row, f in enumerate(fields):
        x1, it1, _ = cg_spd(grid.assemble_stiffness(f.cells), b[row], 1e-9, centre=True)
        assert np.array_equal(x[row], x1) and iterations[row] == it1
    with pytest.raises(SolverError) as err:
        cg_spd(K, b, 1e-9, maxiter=2, centre=True)
    assert err.value.iterations == 2 and err.value.residual > 1e-9


def test_stacked_assembly_is_block_diagonal():
    from randpde.grid import periodic_grid
    n, r = 3, 2
    fields, cells = _mixed_stack(n, r)
    grid = periodic_grid(n, r)
    K = grid.assemble_stiffness(cells)
    b = grid.corrector_rhs(cells, np.array([0.3, -1.7]))
    N = grid.ndof
    assert K.shape == (len(fields) * N,) * 2 and b.shape == (len(fields), N)
    for row, f in enumerate(fields):
        block = K[row * N:(row + 1) * N]
        K1 = grid.assemble_stiffness(f.cells)
        assert np.array_equal(block[:, row * N:(row + 1) * N].toarray(), K1.toarray())
        assert block.nnz == K1.nnz  # nothing outside the diagonal block
        assert np.array_equal(b[row], grid.corrector_rhs(f.cells, np.array([0.3, -1.7])))


def test_chunked_homogenize_matches_one_field_solves(monkeypatch):
    # m = 2 chunks + 1: chunk boundaries change no bit of any tensor, any
    # corrector or any iteration count, and neither does mc_estimate
    from randpde import correctors
    from randpde.estimators import EstimatorReport, mc_estimate
    law = Checkerboard(3.0, 20.0)
    n, r, chunk = 4, 4, 3
    m = 2 * chunk + 1
    fields = [realize_field(law, sample_configuration(law, n, 5, i)) for i in range(m)]
    one_by_one = [homogenize(f, r) for f in fields]
    monkeypatch.setattr(correctors, "CHUNK_DOFS", chunk * (n * r) ** 2)
    batched = list(correctors.homogenize_fields(fields, r))
    for (t, ws), (t1, ws1) in zip(batched, one_by_one):
        assert np.array_equal(t, t1)
        for w, w1 in zip(ws, ws1):
            assert np.array_equal(w.values, w1.values)
            assert (w.iterations, w.residual) == (w1.iterations, w1.residual)
    rep = mc_estimate(law, n, r, m, seed=5)
    loop = EstimatorReport.from_samples("mc", law.describe(), n, r,
                                        [t for t, _ in one_by_one], solves=2 * m, seed=5)
    assert np.array_equal(rep.mean, loop.mean) and np.array_equal(rep.var, loop.var)


def test_reference_solve_bitwise_through_vector_path(monkeypatch):
    # the reference leg passes one vector: cg_spd runs it as a one-row stack
    # and must keep the loop's values and iteration count
    from randpde import poisson
    from randpde.grid import cg_spd
    from randpde.perforations import build_perforations
    perf = build_perforations("random_rectangles", seed=2026, count=100,
                              width_range=(0.02, 0.05), height_range=(0.02, 0.05))
    calls = []

    def recorded(K, b, tol, preconditioner=None):
        out = cg_spd(K, b, tol, preconditioner=preconditioner)
        calls.append((K, b, tol, preconditioner, out))
        return out
    monkeypatch.setattr(poisson, "cg_spd", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        ref = poisson.reference_solve(perf, lambda x, y: np.ones_like(x), 64)
    ((K, b, tol, preconditioner, (x, iterations, residual)),) = calls
    assert preconditioner is not None  # the multigrid V-cycle
    x0, it0 = _vector_cg(K, b, tol, preconditioner)
    assert np.array_equal(x, x0) and iterations == it0
    assert isinstance(iterations, int) and isinstance(residual, float)
    assert np.array_equal(ref.values[1:-1, 1:-1].ravel(), x0)
