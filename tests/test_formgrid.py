import math

import numpy as np
import pytest
import scipy.sparse as sp

from diracbox import (
    SpinorField,
    assemble,
    assemble_1d,
    build_grid,
    constraint_map,
    dirac1d,
    quotient,
    random_field,
    reconstruct,
    smallest_eigenpair,
    trial_dirichlet,
    weighted,
    weighted_quotient,
)
from diracbox.formgrid import CORNER, INTERIOR, OMEGA, _matrices_1d

TWO_PI_SQ = 2 * math.pi**2


def _reduce_field(u1, u2, cmap):
    """Reduced vector from full nodal values: the inverse of ``reconstruct``
    on data that satisfies the boundary constraint."""
    vals = np.zeros(cmap.ndof, dtype=complex)
    for u, free in ((u1, cmap.free1), (u2, cmap.free2)):
        vals[free[free >= 0]] = u[free >= 0]
    return SpinorField(vals, cmap.n)


def _bilinear_doubling(u):
    """Nodal values of the same bilinear function on twice as many cells."""
    fine = np.zeros((2 * u.shape[0] - 1, 2 * u.shape[1] - 1), dtype=complex)
    fine[::2, ::2] = u
    fine[1::2, ::2] = 0.5 * (u[:-1, :] + u[1:, :])
    fine[::2, 1::2] = 0.5 * (u[:, :-1] + u[:, 1:])
    fine[1::2, 1::2] = 0.25 * (u[:-1, :-1] + u[1:, :-1]
                               + u[:-1, 1:] + u[1:, 1:])
    return fine


@pytest.mark.parametrize("bad", [3, 5, 2, 0, -4, 10.5])
def test_build_grid_rejects_bad_sizes(bad):
    with pytest.raises(ValueError):
        build_grid(bad)


def test_grid_geometry():
    g = build_grid(4)
    assert g.h == 0.25
    assert np.allclose(g.nodes, [-0.5, -0.25, 0.0, 0.25, 0.5])


@pytest.mark.parametrize("n,expected", [(4, 30), (64, 8190)])
def test_reduced_dimension(n, expected):
    assert constraint_map(n).ndof == expected
    assert expected == 2 * (n - 1) ** 2 + 4 * (n - 1)


def test_hand_computed_1d_element_matrices():
    # four cells on (-1/2, 1/2): h = 1/4; assembled tridiagonal matrices
    h = 0.25
    k, m, t = (mat.toarray() for mat in _matrices_1d(4))
    m_ref = np.array([
        [h / 3, h / 6, 0, 0, 0],
        [h / 6, 2 * h / 3, h / 6, 0, 0],
        [0, h / 6, 2 * h / 3, h / 6, 0],
        [0, 0, h / 6, 2 * h / 3, h / 6],
        [0, 0, 0, h / 6, h / 3],
    ])
    k_ref = (1 / h) * np.array([
        [1, -1, 0, 0, 0],
        [-1, 2, -1, 0, 0],
        [0, -1, 2, -1, 0],
        [0, 0, -1, 2, -1],
        [0, 0, 0, -1, 1],
    ])
    t_ref = np.diag([1.0, 0, 0, 0, 1.0])
    assert np.allclose(m, m_ref, atol=1e-16)
    assert np.allclose(k, k_ref, atol=1e-13)
    assert np.allclose(t, t_ref, atol=0)


def test_mass_partition_of_unity():
    # row sums of the full scalar mass matrix are the basis integrals
    n = 4
    _, m1d, _ = _matrices_1d(n)
    full = sp.kron(m1d, m1d).toarray()
    sums = full.sum(axis=1).reshape(n + 1, n + 1)
    h2 = (1.0 / n) ** 2
    cmap = constraint_map(n)
    interior = cmap.node_class == INTERIOR
    corner = cmap.node_class == CORNER
    edge = ~interior & ~corner
    assert np.allclose(sums[interior], h2)
    assert np.allclose(sums[edge], h2 / 2)
    assert np.allclose(sums[corner], h2 / 4)
    assert full.sum() == pytest.approx(1.0, rel=1e-14)


def test_matrices_hermitian(fm_cache):
    fm = fm_cache(8)
    for mat in (fm.K1, fm.K2, fm.M, fm.Tpar, fm.Teq):
        dev = abs(mat - mat.getH())
        top = abs(mat).max()
        assert (dev.max() if dev.nnz else 0.0) <= 1e-14 * top


def test_definiteness_and_trace_support(fm_cache):
    fm = fm_cache(8)
    rng = np.random.default_rng(1)
    for _ in range(5):
        v = rng.standard_normal(fm.ndof) + 1j * rng.standard_normal(fm.ndof)
        assert np.real(np.vdot(v, fm.M @ v)) > 0
        assert np.real(np.vdot(v, fm.K1 @ v)) >= -1e-12
        assert np.real(np.vdot(v, fm.Tpar @ v)) >= -1e-14
    # all-ones field has a nonzero boundary trace
    ones = np.ones(fm.ndof, dtype=complex)
    assert np.real(np.vdot(ones, (fm.Tpar + fm.Teq) @ ones)) > 0.1


@pytest.mark.parametrize("n", [4, 8])
def test_interior_blocks_are_one_kronecker_sum(fm_cache, n):
    # The structure the tensor-product inverse of the grid pencils rests on:
    # the interior u1 and u2 dofs are uncoupled, both interior blocks equal
    # the Kronecker sum of the 1D Dirichlet matrices, and the trace matrices
    # touch only the edge dofs.
    fm = fm_cache(n)
    cmap = constraint_map(n)
    inner = slice(1, n)
    u1 = cmap.free1[inner, inner].ravel()
    u2 = cmap.free2[inner, inner].ravel()
    edge = np.setdiff1d(np.arange(fm.ndof), np.concatenate([u1, u2]))
    assert edge.size == 4 * (n - 1)
    k1d, m1d, _ = _matrices_1d(n)
    kd, md = k1d[inner, inner], m1d[inner, inner]
    kron = {"K1": sp.kron(kd, md), "K2": sp.kron(md, kd),
            "M": sp.kron(md, md)}
    for name, want in kron.items():
        mat = getattr(fm, name)
        for rows in (u1, u2):
            assert abs(mat[rows][:, rows] - want).max() <= 1e-13 * abs(
                want).max()
        assert abs(mat[u1][:, u2]).max() == 0.0
    for mat in (fm.Tpar, fm.Teq):
        coo = mat.tocoo()
        assert np.isin(coo.row, edge).all() and np.isin(coo.col, edge).all()


def test_constraint_reconstruction_exact(fm_cache):
    n = 8
    cmap = constraint_map(n)
    psi = random_field(build_grid(n), seed=3)
    u1, u2 = reconstruct(psi, cmap)
    for cls, omega in OMEGA.items():
        mask = cmap.node_class == cls
        assert np.array_equal(u2[mask], omega * u1[mask])
    corner = cmap.node_class == CORNER
    assert np.all(u1[corner] == 0) and np.all(u2[corner] == 0)
    back = _reduce_field(u1, u2, cmap)
    assert np.array_equal(back.values, psi.values)


def test_trial_dirichlet_values(fm_cache):
    n = 16
    g = build_grid(n)
    td = trial_dirichlet(g)
    u1, u2 = reconstruct(td)
    assert u1[n // 2, n // 2] == 1.0          # origin node
    assert np.all(u2 == 0)
    assert np.all(u1[0, :] == 0) and np.all(u1[:, -1] == 0)
    fm = fm_cache(n)
    q0 = quotient(fm, 1, 1, 0.0, td)
    # the m-dependence is exactly the additive m^2: traces vanish
    for m in (0.5, 2.0, 50.0):
        assert quotient(fm, 1, 1, m, td) - m**2 == pytest.approx(q0, rel=1e-13)


def test_trial_quotient_descends_to_dirichlet_value(fm_cache):
    values = []
    for n in (16, 32, 64):
        q = quotient(fm_cache(n), 1, 1, 0.0, trial_dirichlet(build_grid(n)))
        assert q > TWO_PI_SQ
        values.append(q)
    assert values[0] > values[1] > values[2]


def test_quotient_homogeneity_and_errors(fm_cache):
    fm = fm_cache(8)
    psi = random_field(build_grid(8), seed=5)
    q = quotient(fm, 1.3, 0.7, 0.2, psi)
    scaled = type(psi)(3.7j * psi.values, psi.n)
    assert quotient(fm, 1.3, 0.7, 0.2, scaled) == pytest.approx(q, rel=1e-13)
    zero = type(psi)(np.zeros_like(psi.values), psi.n)
    with pytest.raises(ValueError):
        quotient(fm, 1, 1, 0.0, zero)
    with pytest.raises(ValueError):
        quotient(fm, -1.0, 1.0, 0.0, psi)


def test_weighted_zero_mass_reduction(fm_cache):
    fm = fm_cache(8)
    q = weighted(fm, (0.25, 4.0, 0.0, 0.0, 0.0))
    ref = fm.K1 / 4.0 + fm.K2 * 4.0
    dev = abs(q - ref)
    assert (dev.max() if dev.nnz else 0.0) == 0.0
    assert q.nnz == (fm.K1 + fm.K2).nnz


def test_weighted_form_weights(fm_cache):
    fm = fm_cache(8)
    a, b, m = 1.7, 0.4, 2.5
    w = (a**-2, b**-2, m**2, m / a, m / b)
    q = weighted(fm, w)
    psi = random_field(build_grid(8), seed=9)
    v = psi.values
    direct = np.vdot(v, q @ v)
    parts = (np.vdot(v, fm.K1 @ v) / a**2 + np.vdot(v, fm.K2 @ v) / b**2
             + m**2 * np.vdot(v, fm.M @ v)
             + (m / a) * np.vdot(v, fm.Tpar @ v)
             + (m / b) * np.vdot(v, fm.Teq @ v))
    assert direct == pytest.approx(parts, rel=1e-13)
    mass = np.vdot(v, fm.M @ v).real
    assert weighted_quotient(fm, w, psi) == pytest.approx(
        direct.real / mass, rel=1e-13)
    assert quotient(fm, a, b, m, psi) == pytest.approx(
        direct.real / mass, rel=1e-13)


@pytest.mark.parametrize("n", [4, 12, 30])
def test_weighted_is_the_term_by_term_sum_bit_for_bit(fm_cache, n):
    # weighted sums data arrays on the pattern K1, K2 and M share; the result
    # must be the sparse sum of the weighted terms, in the same order, to the
    # last bit and with the same stored entries.
    from diracbox import jopt
    fm = fm_cache(n)
    mats = (fm.K1, fm.K2, fm.M, fm.Tpar, fm.Teq)
    for a, b, m in ((1.3, 1 / 1.3, 0.0), (0.05, 20.0, 1e3), (1.7, 0.4, 2.5)):
        for w in ((a**-2, b**-2, 0.0, m / a, m / b),
                  jopt._euler_weights(a, b, m), (0.0, 0.0, 1.0, 0.0, 0.0)):
            terms = [wi * mat for wi, mat in zip(w, mats) if wi != 0.0]
            want = sp.csr_matrix(sum(terms[1:], terms[0]))
            got = weighted(fm, w)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data.view(float), want.data.view(float))
            # q owns its index arrays
            assert not np.shares_memory(got.indices, fm.M.indices)
            assert not np.shares_memory(got.indptr, fm.M.indptr)


def test_weighted_rejects_forms_without_a_shared_pattern(fm_cache):
    import dataclasses
    fm = fm_cache(8)
    k1 = fm.K1.tolil()
    k1[0, fm.ndof - 1] = k1[fm.ndof - 1, 0] = 1.0    # outside the stencil
    broken = dataclasses.replace(fm, K1=k1.tocsr())
    with pytest.raises(ValueError, match="sparsity pattern"):
        weighted(broken, (1.0, 1.0, 0.0, 0.0, 0.0))
    far = sp.csr_matrix(([1.0], ([0], [fm.ndof - 1])), shape=fm.M.shape)
    broken = dataclasses.replace(fm, Tpar=(fm.Tpar + far + far.T).tocsr())
    with pytest.raises(ValueError, match="Tpar lies outside"):
        weighted(broken, (1.0, 1.0, 0.0, 1.0, 1.0))


@pytest.mark.parametrize("n", [4, 12, 30])
def test_symmetry_certificate_holds_for_assembled_forms(fm_cache, n):
    # Each of the five forms is Hermitian and commutes with the charge
    # conjugation bit for bit, so every real-weighted pencil does too.
    import dataclasses
    fm = dataclasses.replace(fm_cache(n))       # a fresh, unchecked copy
    assert "_symmetry_certificate" not in vars(fm)
    assert fm._symmetry_certificate is True


def test_symmetry_certificate_built_on_the_first_solve_not_in_setup():
    # The benchmark times set-up (import, constraint map, assembly through
    # the CLI's form cache, rotation map); the certificate belongs to the
    # first solve.  A fresh process, so no earlier test has built it.
    import os
    import subprocess
    import sys
    code = ("from diracbox import cli, formgrid, lambda1_2d, symmetry\n"
            "formgrid.constraint_map(12)\n"
            "fm = cli._form_matrices(12)\n"
            "symmetry.rotation_map(12)\n"
            "assert '_symmetry_certificate' not in vars(fm)\n"
            "lambda1_2d(1.0, 1.0, 0.0, 12)\n"
            "assert vars(fm)['_symmetry_certificate'] is True\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _planted(fm, name, delta):
    import dataclasses
    return dataclasses.replace(
        fm, **{name: (getattr(fm, name) + delta).tocsr()})


def test_symmetry_certificate_rejects_a_non_hermitian_form(fm_cache):
    fm = fm_cache(12)
    k1 = fm.K1.tocoo()
    off = np.flatnonzero(k1.row != k1.col)[k1.nnz // 3]
    delta = sp.csr_matrix(([1e-9 * np.abs(k1.data).max()],
                           ([k1.row[off]], [k1.col[off]])), shape=k1.shape)
    with pytest.raises(ValueError, match="K1 is not Hermitian"):
        _planted(fm, "K1", delta)._symmetry_certificate


@pytest.mark.parametrize("name", ["K1", "K2", "M", "Tpar", "Teq"])
def test_symmetry_certificate_rejects_a_form_without_conjugation(fm_cache,
                                                                 name):
    # Hermitian changes that the charge conjugation C does not keep, each
    # found bit for bit.  C swaps u1 and u2 at an interior node, so one
    # ulp more on one u1 diagonal entry breaks it; it maps each edge dof to
    # itself, where a same-edge entry of a trace must stay real.
    from diracbox.errors import ConsistencyError
    n = 12
    fm = fm_cache(n)
    mat = getattr(fm, name)
    if name in ("Tpar", "Teq"):
        coo = mat.tocoo()
        off = np.flatnonzero(coo.row != coo.col)[0]
        r, c = coo.row[off], coo.col[off]
        eps = 1e-3j * np.abs(coo.data).max()
        delta = sp.csr_matrix(([eps, -eps], ([r, c], [c, r])),
                              shape=mat.shape)
    else:
        k = constraint_map(n).free1[3, 5]
        bump = np.zeros(fm.ndof)
        bump[k] = np.spacing(mat[k, k].real)
        delta = sp.diags(bump)
    broken = _planted(fm, name, delta)
    assert broken.K1.nnz == fm.K1.nnz       # the pattern is unchanged
    with pytest.raises(ConsistencyError, match=f"{name} does not commute"
                       ".*lacks the symmetry"):
        broken._symmetry_certificate


@pytest.mark.parametrize("n", [4, 12, 30])
def test_constraint_numbering_matches_a_node_loop(n):
    # Node-major numbering: u1 of every non-corner node, then u2 of an
    # interior one, in the order of a loop over the nodes.
    cmap = constraint_map(n)
    free1 = -np.ones((n + 1, n + 1), dtype=np.int64)
    free2 = -np.ones((n + 1, n + 1), dtype=np.int64)
    k = 0
    for i in range(n + 1):
        for j in range(n + 1):
            if cmap.node_class[i, j] == CORNER:
                continue
            free1[i, j] = k
            k += 1
            if cmap.node_class[i, j] == INTERIOR:
                free2[i, j] = k
                k += 1
    assert cmap.ndof == k
    for got, want in ((cmap.free1, free1), (cmap.free2, free2)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _assert_same_bytes(got, want):
    """Canonical CSR matrices equal in shape, stored pattern, index dtypes
    and every bit of their data."""
    assert got.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        g, w = getattr(got, attr), getattr(want, attr)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), attr


@pytest.mark.parametrize("n", [4, 12, 30])
def test_forms_match_the_projection_bases_bit_for_bit(fm_cache,
                                                      projection_bases, n):
    # The reduction by index gathers equals the Hermitian part of
    # B1^H A B1 + B2^H A B2, the bases built from the node classes and
    # OMEGA, to the last bit and stored entry.
    ref = projection_bases.of_grid(n)
    k, m, t = _matrices_1d(n)
    fm = fm_cache(n)
    pairs = {"K1": (k, m), "K2": (m, k), "M": (m, m), "Tpar": (t, m),
             "Teq": (m, t)}
    for name, (a, b) in pairs.items():
        _assert_same_bytes(getattr(fm, name),
                           ref.reduce(sp.kron(a, b, format="csr")))


@pytest.mark.parametrize("n", [4, 64])
def test_assemble_1d_matches_the_projection_bases_bit_for_bit(
        projection_bases, n):
    # Numbered by a loop over the nodes: one dof at each end, where
    # u2 = -i u1 (left) and +i u1 (right), two at each interior node.
    free1 = np.full(n + 1, -1)
    free2 = np.full(n + 1, -1)
    k = 0
    for p in range(n + 1):
        free1[p] = k
        k += 1
        if 0 < p < n:
            free2[p] = k
            k += 1
    omega = np.zeros(n + 1, dtype=complex)
    omega[0], omega[n] = -1.0j, 1.0j
    ref = projection_bases(free1, free2, omega)
    fm1 = assemble_1d(n)
    for got, full in zip((fm1.K, fm1.M, fm1.T), _matrices_1d(n)):
        _assert_same_bytes(got, ref.reduce(full))


@pytest.mark.parametrize("n", [4, 12])
def test_reconstruct_matches_the_projection_bases_bit_for_bit(
        projection_bases, n):
    # Random fields and one of negative zeros, which the sparse products
    # of the bases turn positive.
    ref = projection_bases.of_grid(n)
    fields = [random_field(build_grid(n), seed=seed).values
              for seed in range(3)]
    fields.append(np.full(ref.basis1.shape[1], complex(-0.0, -0.0)))
    for values in fields:
        got = reconstruct(SpinorField(values, n))
        for u, basis in zip(got, (ref.basis1, ref.basis2)):
            want = (basis @ values).reshape(n + 1, n + 1)
            assert u.dtype == want.dtype and u.tobytes() == want.tobytes()


def test_reconstruct_rejects_a_field_of_another_grid():
    psi = random_field(build_grid(12), seed=0)
    with pytest.raises(ValueError, match="does not match"):
        reconstruct(psi, constraint_map(8))
    with pytest.raises(ValueError, match="does not match"):
        reconstruct(SpinorField(psi.values[:-1], 12))


def test_assemble_built_once_per_n():
    assert assemble(build_grid(8)) is assemble(build_grid(8))
    assert assemble(build_grid(8)) is not assemble(build_grid(10))


def test_nested_refinement_preserves_quotient(fm_cache):
    psi = random_field(build_grid(8), seed=11)
    u1, u2 = (_bilinear_doubling(u) for u in reconstruct(psi))
    fine = _reduce_field(u1, u2, constraint_map(16))
    # the doubled data satisfies the fine grid's boundary constraint
    assert all(np.array_equal(u, v)
               for u, v in zip(reconstruct(fine), (u1, u2)))
    q_coarse = quotient(fm_cache(8), 1.2, 0.9, 1.5, psi)
    q_fine = quotient(fm_cache(16), 1.2, 0.9, 1.5, fine)
    assert q_fine == pytest.approx(q_coarse, rel=1e-12)


def test_assemble_1d_dimensions_and_poincare():
    n = 64
    fm1 = assemble_1d(n)
    assert fm1.ndof == 2 * (n - 1) + 2
    for a, m in ((1.0, 0.0), (0.5, 3.0), (2.0, 1.0)):
        q = sp.csr_matrix(fm1.K / a**2 + (m / a) * fm1.T)
        pairs = smallest_eigenpair(q, fm1.M, k=1, tol=1e-8)
        bound = (dirac1d.nu1(m * a).nu / a) ** 2
        assert pairs[0][0] >= bound * (1 - 1e-12)


def test_assemble_1d_matches_closed_form():
    n = 256
    fm1 = assemble_1d(n)
    a, m = 1.0, 0.0
    pairs = smallest_eigenpair(sp.csr_matrix(fm1.K), fm1.M, k=1, tol=1e-8)
    exact = (math.pi / 2) ** 2
    assert pairs[0][0] >= exact
    assert pairs[0][0] == pytest.approx(exact, rel=1e-4)
