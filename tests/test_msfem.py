import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from scipy.linalg import lapack

from randpde import msfem
from randpde.errors import GridMismatchError, LocalSolveError, ParameterError, ResolutionWarning
from randpde.femcore import (SIDES, SquareGrid, load_vector, penalized_band, penalized_diagonals,
                             square_grid)
from randpde.grid import KXX, KYY, MASS, assemble
from randpde.msfem import (CoarseMesh, CoarseSolution, _build_space, _element_geometry,
                           _local_problems, _solve_group, baseline_solve, build_cr_space,
                           compute_errors, count_local_solves, edge_average_matrix,
                           max_mean_jump, msfem_solve)
from randpde.perforations import NoPerforations, RandomRectangles, build_perforations
from randpde.poisson import default_kappa, reference_solve


def f_one(x, y):
    return np.ones_like(x)


def f_zero(x, y):
    return np.zeros_like(x)


@pytest.fixture(scope="module")
def plain_space():
    return build_cr_space(CoarseMesh(4), NoPerforations(), fine_n=16)


def test_edge_functions_have_unit_averages(plain_space):
    ea = edge_average_matrix(plain_space)
    n_e = plain_space.n_edge_dofs
    assert np.max(np.abs(ea[:, :n_e] - np.eye(n_e))) <= 1e-8
    if plain_space.with_bubbles:
        assert np.max(np.abs(ea[:, n_e:])) <= 1e-8


def test_edge_function_discontinuous_with_zero_mean_jump():
    # 3x3 mesh: the two elements sharing edge v(0,0) have different outer
    # boundaries, so the traces genuinely differ while the averages match
    mesh = CoarseMesh(3)
    space = build_cr_space(mesh, NoPerforations(), fine_n=16)
    grid = square_grid(16)
    eid = mesh.edge_id("v", 0, 0)
    (ea, sa), (eb, sb) = mesh.edge_adjacency()[eid]
    dof = space.edge_dof[eid]
    dofs_a, vals_a = space.elem_basis[ea]
    dofs_b, vals_b = space.elem_basis[eb]
    phi_a = vals_a[list(dofs_a).index(dof)]
    phi_b = vals_b[list(dofs_b).index(dof)]
    trace_a = phi_a[grid.side_nodes(sa)]
    trace_b = phi_b[grid.side_nodes(sb)]
    assert grid.trace_row(sa, space.h_loc) @ phi_a == pytest.approx(1.0, abs=1e-8)
    assert grid.trace_row(sb, space.h_loc) @ phi_b == pytest.approx(1.0, abs=1e-8)
    # pointwise traces differ even though the averages agree
    assert np.max(np.abs(trace_a - trace_b)) > 1e-2 * np.abs(trace_a).max()


def test_bubble_positive_in_the_bulk(plain_space):
    # the zero-average edge constraints force small sign changes along the
    # element boundary, so positivity holds in the bulk interior (inspected:
    # the quarter-inset core is positive, the peak sits at the center)
    fn = plain_space.fine_n
    for elem in ((1, 1), (2, 1)):
        dofs, values = plain_space.elem_basis[elem]
        assert plain_space.bubble_dof[elem] == dofs[-1]
        bubble = values[-1].reshape(fn + 1, fn + 1)
        core = bubble[fn // 4:3 * fn // 4 + 1, fn // 4:3 * fn // 4 + 1]
        assert core.min() > 0
        assert bubble.max() == pytest.approx(bubble[fn // 2, fn // 2])


def test_dead_edge_dropped():
    # rectangle swallowing the vertical edge x=0.5, y in [0, 0.5]
    mesh = CoarseMesh(2)
    perf = RandomRectangles(rects=((0.5, 0.25, 0.2, 0.7),))
    space = build_cr_space(mesh, perf, fine_n=16)
    eid = mesh.edge_id("v", 0, 0)
    assert not space.edge_alive[eid]
    assert eid not in space.edge_dof
    u = msfem_solve(space, f_one)
    assert np.all(np.isfinite(u.coeffs))


def test_dead_element_drops_bubble_and_edges():
    mesh = CoarseMesh(2)
    perf = RandomRectangles(rects=((0.25, 0.25, 0.52, 0.52),))
    space = build_cr_space(mesh, perf, fine_n=16)
    assert not space.elem_alive[0, 0]
    assert (0, 0) not in space.bubble_dof
    assert not space.edge_alive[mesh.edge_id("v", 0, 0)]
    assert not space.edge_alive[mesh.edge_id("h", 0, 0)]
    assert space.elem_alive[1, 1]
    u = msfem_solve(space, f_one)
    assert np.all(u.recon[0, 0] == 0.0)


def test_zero_rhs_gives_zero_solution(plain_space):
    u = msfem_solve(plain_space, f_zero)
    assert np.max(np.abs(u.coeffs)) == 0.0
    assert np.max(np.abs(u.recon)) == 0.0


def test_unperforated_accuracy_with_bubbles():
    ref = reference_solve(NoPerforations(), f_one, 512)
    space = build_cr_space(CoarseMesh(8), NoPerforations(), fine_n=32)
    u = msfem_solve(space, f_one)
    l2, h1 = compute_errors(u, ref)
    assert l2 <= 0.02
    assert h1 <= 0.2


def test_coarse_matrix_symmetric_positive_definite(plain_space):
    u = msfem_solve(plain_space, f_one)
    K = u.coarse_matrix.toarray()
    assert np.max(np.abs(K - K.T)) <= 1e-8 * np.abs(K).max()
    assert np.linalg.eigvalsh(K).min() > 0


def test_nonconformity_zero_mean_jumps():
    perf = build_perforations("shifted_periodic_discs", epsilon=0.25, radius_factor=0.2)
    space = build_cr_space(CoarseMesh(4), perf, fine_n=16)
    u = msfem_solve(space, f_one)
    scale = np.abs(u.recon).max() * space.mesh.H
    assert max_mean_jump(space, u) <= 1e-8 * scale


def _whspace_probe(space, elem, rng):
    """A random member of the orthogonal test space: vanishes on the outer
    boundary and in the perforations, zero averages on internal edges, zero
    element mean."""
    grid = square_grid(space.fine_n)
    mask = space.masks[elem]
    v = rng.normal(size=grid.nn)
    dirichlet = [s for s in SIDES
                 if space.mesh.element_side_edge(elem[0], elem[1], s) is None]
    fixed = {node for s in dirichlet for node in grid.side_nodes(s).tolist()}
    fixed.update(np.unique(grid.elem_nodes[mask.ravel()]).tolist())
    v[sorted(fixed)] = 0.0
    rows = [grid.trace_row(s, space.h_loc) for s in SIDES if s not in dirichlet]
    rows.append(load_vector(np.ones(space.fine_n ** 2), np.ones_like(mask), space.h_loc))
    free = np.setdiff1d(np.arange(grid.nn), sorted(fixed))
    C = np.vstack(rows)[:, free]
    lam = np.linalg.solve(C @ C.T, C @ v[free])
    v[free] -= C.T @ lam
    return v


def test_basis_orthogonal_to_test_space():
    perf = build_perforations("periodic_discs", epsilon=0.25, radius_factor=0.2)
    space = build_cr_space(CoarseMesh(4), perf, fine_n=16)
    grid = square_grid(space.fine_n)
    rng = np.random.default_rng(5)
    for elem in ((1, 1), (2, 0), (0, 3)):
        dofs, values = space.elem_basis[elem]
        keep = ~space.masks[elem]
        for trial in range(3):
            v = _whspace_probe(space, elem, rng)
            stacked = np.vstack([values, v[None, :]])
            gram = grid.energy_products(stacked, keep)
            for a in range(len(dofs)):
                rel = abs(gram[a, -1]) / np.sqrt(gram[a, a] * gram[-1, -1])
                assert rel <= 1e-6


def test_compute_errors_self_and_zero():
    ref = reference_solve(NoPerforations(), f_one, 128)
    space = build_cr_space(CoarseMesh(4), NoPerforations(), fine_n=16)
    u = msfem_solve(space, f_one)
    ratio = 128 // (4 * 16)
    recon = np.zeros_like(u.recon)
    for i in range(4):
        for j in range(4):
            recon[i, j] = ref.values[i * 16 * ratio:(i + 1) * 16 * ratio + 1:ratio,
                                     j * 16 * ratio:(j + 1) * 16 * ratio + 1:ratio]
    mirrored = CoarseSolution(m=u.m, fine_n=u.fine_n, method=u.method,
                              with_bubbles=u.with_bubbles, dof=u.dof,
                              solves=u.solves, coeffs=u.coeffs, recon=recon,
                              masks=u.masks, coarse_matrix=u.coarse_matrix)
    assert compute_errors(mirrored, ref) == (0.0, 0.0)
    zero = CoarseSolution(m=u.m, fine_n=u.fine_n, method=u.method,
                          with_bubbles=u.with_bubbles, dof=u.dof, solves=u.solves,
                          coeffs=u.coeffs, recon=np.zeros_like(u.recon),
                          masks=u.masks, coarse_matrix=u.coarse_matrix)
    assert compute_errors(zero, ref) == (1.0, 1.0)


def test_compute_errors_requires_integer_ratio():
    ref = reference_solve(NoPerforations(), f_one, 96)
    space = build_cr_space(CoarseMesh(4), NoPerforations(), fine_n=16)
    u = msfem_solve(space, f_one)
    with pytest.raises(GridMismatchError):
        compute_errors(u, ref)


def test_compute_errors_warns_on_finer_reference():
    u = msfem_solve(build_cr_space(CoarseMesh(4), NoPerforations(), fine_n=8), f_one)
    finer = reference_solve(NoPerforations(), f_one, 64)
    matched = reference_solve(NoPerforations(), f_one, 32)
    with pytest.warns(ResolutionWarning, match="finer"):
        compute_errors(u, finer)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compute_errors(u, matched)


def test_coarse_q1_accuracy_unperforated():
    ref = reference_solve(NoPerforations(), f_one, 512)
    u = baseline_solve(CoarseMesh(16), NoPerforations(), f_one,
                       method="coarse_q1", with_bubbles=False, fine_n=32)
    l2, _ = compute_errors(u, ref)
    assert l2 <= 0.01


def test_linear_baseline_unperforated_close_to_cr():
    ref = reference_solve(NoPerforations(), f_one, 512)
    lin = baseline_solve(CoarseMesh(8), NoPerforations(), f_one,
                         method="msfem_linear", with_bubbles=True, fine_n=32)
    l2, h1 = compute_errors(lin, ref)
    assert l2 <= 0.03
    assert h1 <= 0.2


def test_without_bubbles_view():
    space = build_cr_space(CoarseMesh(4), NoPerforations(), fine_n=8)
    bare = space.without_bubbles()
    assert bare.n_dofs == space.n_edge_dofs
    assert not bare.with_bubbles
    u = msfem_solve(bare, f_one)
    assert u.dof == bare.n_dofs


def test_space_penalty_is_the_default_kappa(plain_space):
    assert plain_space.kappa == default_kappa(plain_space.h_loc)
    assert plain_space.kappa == pytest.approx(1e8 * 64 ** 2)  # h_loc = 1/(4 * 16)


@pytest.mark.parametrize("fn", [1, 2, 3, 8, 16, 33])
def test_load_vector_matches_elementwise_bincount(fn):
    # the corner-shifted adds give the bits of a per-element bincount, which
    # adds each node's cell shares in ascending element order from 0.0
    grid = SquareGrid(fn)
    rng = np.random.default_rng(fn)
    h = 1.0 / fn
    for batch in ((), (5,), (3, 4)):
        values = rng.normal(size=(*batch, fn * fn))
        values[..., ::3] = -0.0
        keep = rng.random((*batch, fn, fn)) < 0.7
        w = np.where(keep.reshape(values.shape), values, 0.0) * (h * h / 4.0)
        w = w.reshape(-1, fn * fn)
        nodes = grid.elem_nodes.ravel() + grid.nn * np.arange(len(w))[:, None]
        oracle = np.bincount(nodes.ravel(), weights=np.repeat(w, 4, axis=1).ravel(),
                             minlength=len(w) * grid.nn).reshape(*batch, grid.nn)
        load = load_vector(values, keep, h)
        assert load.shape == oracle.shape
        assert np.array_equal(load, oracle) and np.array_equal(np.signbit(load),
                                                               np.signbit(oracle))


def _penalized_coo(grid, mask, kappa, h):
    """Laplace stiffness plus kappa times the mass on masked cells, each term
    one COO build over the full grid, independently of the stencil builders."""
    def coo(en, block):
        rows, cols = np.repeat(en, 4, axis=1).ravel(), np.tile(en, (1, 4)).ravel()
        data = np.tile(block.ravel(), len(en))
        return sp.coo_matrix((data, (rows, cols)), shape=(grid.nn, grid.nn)).tocsr()
    return coo(grid.elem_nodes, KXX + KYY) + coo(grid.elem_nodes[mask.ravel()],
                                                kappa * h * h * MASS)


@pytest.mark.parametrize("fn", [8, 16, 160, 512])
def test_penalized_matches_coo_build(fn):
    # the stencil builders' free block (nine diagonals) is the full COO build
    # sliced to the free nodes, and penalized_band's couple is the product of
    # its coupling slice, for every set of Dirichlet sides
    grid = SquareGrid(fn)
    rng = np.random.default_rng(fn)
    subsets = [tuple(s for k, s in enumerate(SIDES) if bits >> k & 1) for bits in range(16)]
    for density in (0.0, 0.3, 1.0):
        mask = rng.random((fn, fn)) < density
        kappa, h = 1e8 * fn ** 2, 1.0 / fn
        ref = _penalized_coo(grid, mask, kappa, h)
        for sides in subsets:
            free = grid.free_nodes(sides)
            ref_rows = ref[free]
            expected = ref_rows[:, free]
            A = penalized_diagonals(fn, mask, kappa, h, sides)
            n = expected.shape[0]
            assert A.shape == expected.shape and len(A.offsets) == 9
            assert np.all(np.diff(A.offsets) > 0)
            # value by value along each diagonal, and nothing off them
            on_diagonals = 0
            for offset, diagonal in zip(A.offsets, A.data):
                values = diagonal[max(offset, 0):n + min(offset, 0)]
                assert np.array_equal(values, expected.diagonal(offset)) and \
                    np.array_equal(np.signbit(values), np.signbit(expected.diagonal(offset))), \
                    (density, sides, offset)
                on_diagonals += np.count_nonzero(values)
            assert on_diagonals == expected.count_nonzero(), (density, sides)
            if fn <= 160:  # the band storage takes 1 GB at fn = 512
                _, couple = penalized_band(fn, mask, kappa, h, sides)
                _assert_couples(couple, ref_rows[:, ~free], free, rng, (density, sides))


def _assert_couples(couple, coupling, free, rng, where):
    """couple(g) equals the COO coupling slice times g's Dirichlet values,
    bitwise, for random g that is zero on the free nodes."""
    g = rng.standard_normal((3, len(free)))
    g[:, free] = 0.0
    got, expected = couple(g), coupling @ g[:, ~free].T
    assert got.shape == expected.shape and np.array_equal(got, expected), where


@pytest.mark.parametrize("fn", [1, 2, 8, 33])
def test_penalized_band_is_the_lower_band(fn):
    # band[d, j] holds A_ff[j + d, j] for every d <= ny + 1, the whole lower
    # triangle, bitwise, with A_ff the nine diagonals' free block; couple is
    # the COO coupling's product, also where ny = 1 or the free block is empty
    grid = SquareGrid(fn)
    rng = np.random.default_rng(fn)
    mask = rng.random((fn, fn)) < 0.3
    kappa, h = 1e8 * fn ** 2, 1.0 / fn
    ref = _penalized_coo(grid, mask, kappa, h)
    for bits in range(16):
        sides = tuple(s for k, s in enumerate(SIDES) if bits >> k & 1)
        A_ff = penalized_diagonals(fn, mask, kappa, h, sides)
        band, couple = penalized_band(fn, mask, kappa, h, sides)
        free = grid.free_nodes(sides)
        assert np.array_equal(free, ~np.isin(np.arange(grid.nn), [
            node for s in sides for node in grid.side_nodes(s)])), sides
        _assert_couples(couple, ref[free][:, ~free], free, rng, sides)
        n = A_ff.shape[0]
        assert band.shape == (fn + 3 - ("S" in sides) - ("N" in sides), n)
        lower = np.zeros((n, n))
        for d, row in enumerate(band):
            k = max(n - d, 0)   # the entries of band row d inside the matrix
            lower[np.arange(d, d + k), np.arange(k)] = row[:k]
            assert not row[k:].any()
        assert np.array_equal(lower, np.tril(A_ff.toarray())), sides


def _reference_basis(space, elem, dofs, permc_spec="MMD_AT_PLUS_A", block=True):
    """Plain per-element local solves: assemble, slice, factorize with the
    given column ordering, then solve the basis functions' right-hand sides
    as one block (or, with block=False, each on its own)."""
    grid, h, (i, j) = square_grid(space.fine_n), space.h_loc, elem
    A = _penalized_coo(grid, space.masks[elem], space.kappa, h)
    internal = [s for s in SIDES if space.method == "cr"
                and space.mesh.element_side_edge(i, j, s) is not None]
    fixed = np.unique([node for s in SIDES if s not in internal
                       for node in grid.side_nodes(s)]).astype(int)
    free = np.setdiff1d(np.arange(grid.nn), fixed)
    C = sp.csr_matrix(np.array([grid.trace_row(s, h)[free] for s in internal]))
    S = sp.bmat([[A[free][:, free], C.T], [C, None]], format="csc") if internal \
        else A[free][:, free].tocsc()
    lu = spla.splu(S, permc_spec=permc_spec)
    t = np.arange(space.fine_n + 1) / space.fine_n
    out = np.zeros((len(dofs), grid.nn))
    rhs = np.zeros((len(dofs), S.shape[0]))
    for row, b, dof in zip(out, rhs, dofs):
        if space.bubble_dof.get(elem) == dof:
            b[:free.size] = load_vector(np.ones(space.fine_n ** 2), ~space.masks[elem], h)[free]
        elif space.method == "cr":
            (a, sa), (_, sb) = space.mesh.edge_adjacency()[
                next(e for e, d in space.edge_dof.items() if d == dof)]
            b[free.size + internal.index(sa if a == elem else sb)] = 1.0
        else:
            a, c = next(n for n, d in space.node_dof.items() if d == dof)
            row[:] = np.outer(t if a > i else 1.0 - t, t if c > j else 1.0 - t).ravel()
            b[:free.size] = -(A[free][:, fixed] @ row[fixed])
    sol = lu.solve(rhs.T).T if block else np.array([lu.solve(b) for b in rhs])
    out[:, free] = sol[:, :free.size]
    return out


def _engine_perf(geometry):
    """One of the local-engine test geometries."""
    return {"discs": lambda: build_perforations(
                "periodic_discs", epsilon=0.2, radius_factor=0.2),
            "shifted_discs": lambda: build_perforations(
                "shifted_periodic_discs", epsilon=0.2, radius_factor=0.2),
            "rectangles": lambda: build_perforations(
                "random_rectangles", count=8, width_range=(0.05, 0.15),
                height_range=(0.05, 0.15), seed=11),
            # element (2, 2) at H = 1/5 covered, its four neighbours open:
            # one mask, each with another dead edge
            "dead": lambda: RandomRectangles(rects=((0.5, 0.5, 0.201, 0.201),)),
            "cloud": lambda: build_perforations(   # criterion 8's rectangles
                "random_rectangles", count=100, width_range=(0.02, 0.05),
                height_range=(0.02, 0.05), seed=2026)}[geometry]()


def _engine_spaces(geometry, m, fine_n=16):
    """The local-engine builds (cr with and without bubbles and its view,
    linear, q1 bubbles) on one test geometry at H = 1/m."""
    perf, mesh = _engine_perf(geometry), CoarseMesh(m)
    cr = build_cr_space(mesh, perf, fine_n)
    return [cr, cr.without_bubbles(), build_cr_space(mesh, perf, fine_n, with_bubbles=False),
            _build_space("linear", mesh, perf, fine_n, True),
            _build_space("q1", mesh, perf, fine_n, True)]


def _local_rows(space):
    """(element, dof ids, basis values) of every local solve of a space."""
    for elem, (dofs, values) in space.elem_basis.items():
        if space.method == "q1":  # only its bubbles are local solves
            if elem not in space.bubble_dof:
                continue
            dofs, values = dofs[-1:], values[-1:]
        if len(dofs):
            yield elem, dofs, values


@pytest.mark.parametrize("geometry", ["discs", "rectangles", "shifted_discs", "dead", "cloud"])
def test_local_engine_groups_bitwise(geometry):
    # every element's basis has the bits of a one-member group solve of that
    # element alone: sharing a factorization, or one solution between the
    # elements of a data class, changes nothing but the counts
    cr, _, cr_plain, linear, q1 = _engine_spaces(geometry, 16 if geometry == "cloud" else 5)
    for space in (cr, cr_plain, linear, q1):
        grid = square_grid(space.fine_n)
        problems = _local_problems(space.method, space.mesh, space.perf, space.fine_n,
                                   space.with_bubbles)[2]
        # some local problems repeat, so the grouping and the sharing are exercised
        assert space.factorizations < len(space.bubble_dof or space.elem_basis)
        assert space.solves < sum(len(prob.dofs) for prob in problems.values())
        for elem, dofs, values in _local_rows(space):
            alone = _solve_group(grid, space.masks[elem], space.kappa, space.h_loc,
                                 {elem: problems[elem]})[elem]
            # a shared solution still carries each element's own dof ids
            assert np.array_equal(np.array(problems[elem].dofs, dtype=int)[-len(dofs):], dofs), \
                (space.method, elem)
            assert np.array_equal(alone[-len(dofs):], values), (space.method, elem)


def _array_hats(grid, node_dof, elem):
    """Element `elem`'s bilinear hats, in corner order, of its corners that
    carry a node dof: one array, made apart from the problem list."""
    (i, j), t = elem, np.arange(grid.fn + 1) / grid.fn
    return np.array([np.outer(t if di else 1.0 - t, t if dj else 1.0 - t).ravel()
                     for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1))
                     if (i + di, j + dj) in node_dof])


def _array_data_key(method, mesh, grid, edge_alive, numbering, elem, bubble):
    """An element's right-hand-side data as the bytes of arrays, made apart from
    its problem: unit averages on its live internal sides (cr), or its corner
    hats zeroed off the element boundary (linear)."""
    averages = traces = None
    if method == "cr":
        edges = {s: mesh.element_side_edge(*elem, s) for s in SIDES}
        internal = [s for s in SIDES if edges[s] is not None]
        live = [internal.index(s) for s in internal if edge_alive[edges[s]]]
        averages = np.eye(len(internal))[live].tobytes()
    elif method == "linear":
        traces = (_array_hats(grid, numbering, elem) * ~grid.free_nodes(SIDES)).tobytes()
    return bubble, averages, traces


@pytest.mark.parametrize("geometry", ["discs", "rectangles", "shifted_discs", "dead", "cloud"])
def test_named_lifts_group_as_their_arrays(geometry):
    # keying a data class on the names of its lifted sides or corners splits
    # the elements exactly as the bytes of their averages and traces do, and
    # q1's prescribed corners split them as the bytes of their hats
    m, fine_n = 16 if geometry == "cloud" else 5, 16
    mesh, perf, grid = CoarseMesh(m), _engine_perf(geometry), square_grid(fine_n)
    for method in ("cr", "linear", "q1"):
        for bubbles in (True, False):
            (masks, _, edge_alive), numbering, problems, _, prescribed = \
                _local_problems(method, mesh, perf, fine_n, bubbles)
            expected = {}
            for elem, prob in problems.items():
                system = (masks[elem].tobytes(), prob.dirichlet, prob.constrained)
                data = _array_data_key(method, mesh, grid, edge_alive, numbering, elem,
                                       prob.bubble)
                expected.setdefault(system, {}).setdefault(data, []).append(elem)
            got = msfem._solve_classes(masks, problems)
            assert list(got) == list(expected), (method, bubbles)
            assert [list(g.values()) for g in got.values()] == \
                [list(g.values()) for g in expected.values()], (method, bubbles)
            by_name, by_bytes = {}, {}
            for elem, (dofs, corners) in prescribed.items():
                by_name.setdefault(corners, []).append(elem)
                by_bytes.setdefault(_array_hats(grid, numbering, elem).tobytes(), []).append(elem)
            assert list(by_name.values()) == list(by_bytes.values()), (method, bubbles)
            assert problems or (method == "q1" and not bubbles)
            assert bool(prescribed) == (method == "q1")


def test_count_local_solves_holds_no_hats():
    # linear problems name their corners, so counting the local solves on
    # msfem-random's rectangles at H = 1/8, fine_n = 64 makes no per-element
    # hat array (7.6 MB under tracemalloc when each problem held its traces)
    perf = build_perforations("random_rectangles", **CLOUD)
    tracemalloc.start()
    try:
        count_local_solves(CoarseMesh(8), perf, 64, "linear", True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("geometry", ["discs", "shifted_discs", "dead", "cloud"])
def test_coarse_matrix_matches_per_element_grams(geometry):
    # one Gram per distinct (mask, basis) gives the bits of the per-element
    # products over every element, assembled in the same order: by basis
    # count, elements in mesh order within a count
    spaces = _engine_spaces(geometry, 16 if geometry == "cloud" else 5)
    # coarse Q1 without bubbles: every element shares one row of hats per
    # corner set, whatever its mask
    q1 = spaces[-1]
    for space in spaces + [_build_space("q1", q1.mesh, q1.perf, q1.fine_n, False)]:
        grid = square_grid(space.fine_n)
        by_count = {}
        for elem, (dofs, values) in space.elem_basis.items():
            if not len(dofs):
                continue
            mask = space.masks[elem]
            if space.method == "cr":
                gram = grid.energy_products(values, ~mask)
            else:
                gram = grid.energy_products(values, np.ones_like(mask)) \
                    + space.kappa * grid.l2_products(values, mask, space.h_loc)
            by_count.setdefault(len(dofs), []).append((dofs, gram))
        expected = assemble([(np.array([d for d, _ in rows]), np.array([g for _, g in rows]))
                             for rows in by_count.values()], space.n_dofs)
        K = msfem_solve(space, f_one).coarse_matrix
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(K, name), getattr(expected, name)), \
                (space.method, name)


def test_shared_bases_are_read_only():
    # interior elements of the unshifted lattice pose one local problem and
    # share its values, so no element's basis can be written in place
    cr, bare, _, linear, q1 = _engine_spaces("discs", 5)
    for space in (cr, bare, linear, q1):
        assert space.elem_basis[(1, 1)][1] is space.elem_basis[(2, 3)][1], space.method
        for dofs, values in space.elem_basis.values():
            assert not values.flags.writeable
        values = space.elem_basis[(2, 2)][1]
        with pytest.raises(ValueError):
            values[0, 0] = 1.0
        with pytest.raises(ValueError):
            values *= 2.0


@pytest.mark.parametrize("geometry", ["rectangles", "shifted_discs"])
def test_local_engine_matches_per_element_solves(geometry):
    # SuperLU on the assembled saddle system (minimum-degree ordering, block
    # solves) is an independent oracle for the banded Cholesky and the
    # Schur complement (measured <= 6.5e-15)
    for space in _engine_spaces(geometry, 5):
        for elem, dofs, values in _local_rows(space):
            old = _reference_basis(space, elem, dofs)
            assert np.max(np.abs(values - old)) <= 1e-12 * np.max(np.abs(old)), \
                (space.method, elem)


@pytest.mark.parametrize("geometry,m,fine_n", [("cloud", 16, 32), ("shifted_discs", 5, 16)])
def test_local_engine_matches_colamd_column_solves(geometry, m, fine_n):
    # against the default COLAMD ordering with one solve per right-hand side
    # the bases move only at round-off (measured <= 2.2e-14 and <= 4.0e-15)
    cr, _, _, linear, q1 = _engine_spaces(geometry, m, fine_n)
    for space in (cr, linear, q1):
        for elem, dofs, values in _local_rows(space):
            old = _reference_basis(space, elem, dofs, permc_spec="COLAMD", block=False)
            assert np.max(np.abs(values - old)) <= 1e-12 * np.max(np.abs(old)), \
                (space.method, elem)


def _edge_average_error(space, elem):
    """Largest |int_s phi - target| over the element's internal sides s and
    its basis functions phi: 1 for the edge function of side s, else 0."""
    i, j = elem
    grid = square_grid(space.fine_n)
    dofs, values = space.elem_basis[elem]
    worst = 0.0
    for s in SIDES:
        eid = space.mesh.element_side_edge(i, j, s)
        if eid is None:
            continue
        target = np.array([float(space.edge_dof.get(eid) == dof) for dof in dofs])
        worst = max(worst, np.abs(values @ grid.trace_row(s, space.h_loc) - target).max())
    return worst


def test_cr_engine_on_neumann_blocks(plain_space):
    # unperforated interior elements have no Dirichlet side and no penalty,
    # so A_ff is singular (constants); the W or E shift makes it definite
    space = plain_space
    for elem, (dofs, values) in space.elem_basis.items():
        old = _reference_basis(space, elem, dofs)
        assert np.max(np.abs(values - old)) <= 1e-12 * np.max(np.abs(old)), elem
    ea = edge_average_matrix(space)
    n_e = space.n_edge_dofs
    assert np.max(np.abs(ea[:, :n_e] - np.eye(n_e))) <= 1e-12
    assert np.max(np.abs(ea[:, n_e:])) <= 1e-12


@pytest.mark.parametrize("strip", ["W", "S"])
def test_cr_engine_on_nearly_covered_element(strip):
    # element (2, 2) of H = 1/5, fine_n = 32 is perforated but for one cell
    # column (W) or row (S), with all four edges alive. The saddle system is
    # ill-conditioned (cond S = 8.8e5 for the W strip), and the bubble, of
    # size 1e-12 there, differs from SuperLU's by 6.5e-8 (W) and 4.4e-8 (S)
    # relative, while the edge averages hold at round-off (<= 6.2e-16)
    h = 1.0 / 160
    lo, hi = 0.4 + 1.25 * h, 0.6 - 0.25 * h   # cell 0 of the strip axis stays open
    full = (0.4 + 0.25 * h, hi)                # every cell of the other axis
    (x0, x1), (y0, y1) = ((lo, hi), full) if strip == "W" else (full, (lo, hi))
    perf = RandomRectangles(rects=((0.5 * (x0 + x1), 0.5 * (y0 + y1), x1 - x0, y1 - y0),))
    space = build_cr_space(CoarseMesh(5), perf, fine_n=32)
    mask = space.masks[2, 2]
    assert (~mask).sum() == 32 and not (mask[0] if strip == "W" else mask[:, 0]).any()
    dofs, values = space.elem_basis[(2, 2)]
    assert len(dofs) == 5
    assert _edge_average_error(space, (2, 2)) <= 1e-12
    old = _reference_basis(space, (2, 2), dofs)
    assert np.all(np.max(np.abs(values - old), axis=1) <= 1e-6 * np.max(np.abs(old), axis=1))


@pytest.mark.parametrize("stage", ["cholesky", "schur"])
def test_singular_local_system_names_its_element(monkeypatch, stage):
    if stage == "cholesky":
        monkeypatch.setattr(lapack, "dpbtrf", lambda band, **kw: (band, 1))
    else:
        def singular(S):
            raise np.linalg.LinAlgError("not positive definite")
        monkeypatch.setattr(msfem, "cho_factor", singular)
    with pytest.raises(LocalSolveError, match=r"element \(0, 0\)") as info:
        build_cr_space(CoarseMesh(2), NoPerforations(), fine_n=8)
    assert (info.value.kind, info.value.index) == ("element", (0, 0))


def test_local_engine_assembles_no_saddle_matrix(monkeypatch):
    # the local problems never build the sparse saddle block nor call SuperLU
    def forbidden(*args, **kwargs):
        raise AssertionError("called")
    monkeypatch.setattr(spla, "splu", forbidden)
    monkeypatch.setattr(sp, "bmat", forbidden)
    perf = build_perforations("periodic_discs", epsilon=0.25, radius_factor=0.2)
    for method in ("cr", "linear", "q1"):
        space = _build_space(method, CoarseMesh(4), perf, 16, True)
        assert space.factorizations > 0


def test_local_engine_counts_factorizations_apart_from_solves():
    discs = build_perforations("periodic_discs", epsilon=0.1, radius_factor=0.2)
    rects = build_perforations("random_rectangles", count=100, width_range=(0.02, 0.05),
                               height_range=(0.02, 0.05), seed=2026)
    cr = build_cr_space(CoarseMesh(5), discs, 32)
    linear = _build_space("linear", CoarseMesh(5), discs, 32, True)
    q1 = _build_space("q1", CoarseMesh(5), discs, 32, True)
    assert (cr.factorizations, linear.factorizations, q1.factorizations) == (9, 1, 1)
    # one right-hand side per basis function of each distinct local problem:
    # on the lattice most elements repeat one of a few problems (105, 89 and
    # 25 right-hand sides without the sharing)
    assert (cr.solves, linear.solves, q1.solves) == (33, 25, 1)
    cr = build_cr_space(CoarseMesh(16), rects, 32)
    linear = _build_space("linear", CoarseMesh(16), rects, 32, True)
    assert (cr.factorizations, linear.factorizations) == (168, 162)
    # among the rectangles only the unperforated elements repeat (1216 and 1156)
    assert (cr.solves, linear.solves) == (793, 750)


def _cell_centers(fn, origin, h):
    """Centres of an fn x fn cell grid with spacing h from origin, one per
    cell in element order (x index slow)."""
    ex, ey = np.meshgrid(np.arange(fn), np.arange(fn), indexing="ij")
    return origin[0] + (ex.ravel() + 0.5) * h, origin[1] + (ey.ravel() + 0.5) * h


@pytest.mark.parametrize("m, fine_n", [(5, 32), (10, 16), (16, 32), (7, 13), (10, 128)])
def test_cell_centres_are_the_per_cell_rule(m, fine_n):
    # the per-axis centres, broadcast, are bitwise the per-cell centres of
    # every element, and so are the load's values of f on them
    mesh, sinq = CoarseMesh(m), lambda x, y: np.sin(np.pi * x / 2) * np.sin(np.pi * y / 2)
    c = msfem._cell_centres(mesh, fine_n)
    on_axes = sinq(c[:, None, :, None], c[None, :, None, :])
    for i, j in [(0, 0), (m - 1, 0), (m // 2, m - 1), (m - 1, m - 1)]:
        cx, cy = _cell_centers(fine_n, (i * mesh.H, j * mesh.H), mesh.H / fine_n)
        got = np.broadcast_arrays(c[i][:, None], c[j][None, :])
        assert np.array_equal(got[0].ravel(), cx) and np.array_equal(got[1].ravel(), cy)
        assert np.array_equal(on_axes[i, j].ravel(), sinq(cx, cy))


def _loop_geometry(mesh, perf, fine_n):
    """Per-element and per-edge classification, one indicator call each: the
    loop `_element_geometry` replaced, kept as its oracle."""
    m, H = mesh.m, mesh.H
    masks = np.zeros((m, m, fine_n, fine_n), dtype=bool)
    elem_alive = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(m):
            cx, cy = _cell_centers(fine_n, (i * H, j * H), H / fine_n)
            masks[i, j] = perf.indicator(cx, cy).reshape(fine_n, fine_n)
            elem_alive[i, j] = not masks[i, j].all()
    edge_alive = np.zeros(2 * m * (m - 1), dtype=bool)
    t = np.linspace(0.0, H, fine_n + 1)
    for eid, (((i, j), side), (eb, _)) in mesh.edge_adjacency().items():
        if side == "E":  # vertical edge on x = (i+1) H
            px, py = np.full(fine_n + 1, (i + 1) * H), j * H + t
        else:            # horizontal edge on y = (j+1) H
            px, py = i * H + t, np.full(fine_n + 1, (j + 1) * H)
        covered = perf.indicator(px, py).all()
        edge_alive[eid] = not covered and elem_alive[i, j] and elem_alive[eb]
    return masks, elem_alive, edge_alive


CLOUD = dict(count=100, width_range=(0.02, 0.05), height_range=(0.02, 0.05), seed=2026)


@pytest.mark.parametrize("perf, m, fine_n", [
    (build_perforations("random_rectangles", **CLOUD), 16, 32),
    (build_perforations("random_rectangles", **CLOUD), 32, 16),
    (build_perforations("periodic_discs", epsilon=0.1, radius_factor=0.2), 5, 32),
    (build_perforations("periodic_discs", epsilon=0.1, radius_factor=0.2), 10, 16),
    (build_perforations("shifted_periodic_discs", epsilon=0.1, radius_factor=0.2), 5, 32),
    (build_perforations("shifted_periodic_discs", epsilon=0.1, radius_factor=0.2), 10, 16),
    (build_perforations("random_rectangles", count=8, width_range=(0.05, 0.15),
                        height_range=(0.05, 0.15), seed=7), 4, 8),
    (build_perforations("periodic_discs", epsilon=0.25, radius_factor=0.2), 2, 16),
    (NoPerforations(), 7, 9),
], ids=["cloud-16-32", "cloud-32-16", "discs-5-32", "discs-10-16", "shifted-5-32",
        "shifted-10-16", "big-rects-4-8", "coarse-discs-2-16", "none-7-9"])
def test_broadcast_classification_matches_per_element_loop(perf, m, fine_n):
    got = _element_geometry(CoarseMesh(m), perf, fine_n)
    for name, a, b in zip(("masks", "elem_alive", "edge_alive"), got,
                          _loop_geometry(CoarseMesh(m), perf, fine_n)):
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    n = m * fine_n
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        ref = reference_solve(perf, f_one, n)
    cx, cy = _cell_centers(n, (0.0, 0.0), 1.0 / n)
    assert np.array_equal(ref.mask, perf.indicator(cx, cy).reshape(n, n))


def test_unknown_method_rejected():
    with pytest.raises(ParameterError):
        baseline_solve(CoarseMesh(4), NoPerforations(), f_one, method="oversampling")


@pytest.mark.parametrize("geometry", ["rectangles", "shifted_discs"])
def test_count_local_solves_matches_builds(geometry):
    cr, _, cr_plain, linear, q1 = _engine_spaces(geometry, 5)
    for space in (cr, cr_plain, linear, q1):
        assert count_local_solves(space.mesh, space.perf, space.fine_n, space.method,
                                  space.with_bubbles) == space.solves, space.method
    # coarse Q1 without bubbles prescribes every row and solves nothing
    bare = _build_space("q1", q1.mesh, q1.perf, q1.fine_n, False)
    assert (bare.solves, bare.factorizations) == (0, 0)
    assert count_local_solves(q1.mesh, q1.perf, q1.fine_n, "q1", False) == 0
