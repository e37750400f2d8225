import math

import numpy as np
import pytest
import scipy.sparse as sp

from diracbox import (
    SpinorField,
    assemble,
    build_grid,
    constraint_map,
    quotient,
    random_field,
    reconstruct,
    trial_dirichlet,
    weighted,
    weighted_quotient,
)
from diracbox.formgrid import CORNER, INTERIOR, OMEGA, norm_parts

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
    k, m, t = (mat.toarray() for mat in assemble(build_grid(4))._matrices)
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
    _, m1d, _ = assemble(build_grid(n))._matrices
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


def _dense(form):
    """The dense matrix of a grid form operator."""
    return form @ np.eye(form.shape[1])


def test_matrices_hermitian(fm_cache):
    fm = fm_cache(8)
    for mat in (fm.K1, fm.K2, fm.M, fm.Tpar, fm.Teq):
        mat = _dense(mat)
        dev = np.abs(mat - mat.conj().T).max()
        assert dev <= 1e-14 * np.abs(mat).max()


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
    k1d, m1d, _ = fm._matrices
    kd, md = k1d[inner, inner], m1d[inner, inner]
    kron = {"K1": sp.kron(kd, md), "K2": sp.kron(md, kd),
            "M": sp.kron(md, md)}
    for name, want in kron.items():
        mat = _dense(getattr(fm, name))
        for rows in (u1, u2):
            assert np.abs(mat[rows][:, rows] - want).max() <= 1e-13 * abs(
                want).max()
        assert np.abs(mat[u1][:, u2]).max() == 0.0
    for mat in (fm.Tpar, fm.Teq):
        row, col = np.nonzero(_dense(mat))
        assert np.isin(row, edge).all() and np.isin(col, edge).all()


def test_constraint_reconstruction_exact(fm_cache):
    n = 8
    cmap = constraint_map(n)
    psi = random_field(build_grid(n), seed=3)
    u1, u2 = reconstruct(psi)
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
    q = _dense(weighted(fm, (0.25, 4.0, 0.0, 0.0, 0.0)))
    ref = _dense(fm.K1) / 4.0 + _dense(fm.K2) * 4.0
    assert np.abs(q - ref).max() <= 1e-14 * np.abs(ref).max()
    assert np.array_equal(q != 0.0, ref != 0.0)


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
def test_forms_match_the_reference_assembly(fm_cache, reference_forms, n):
    # Each Kronecker operator, weighted sums with every weight nonzero and
    # the quadratic forms of norm_parts agree with the sparse reference
    # assembly on random complex column blocks.
    from diracbox import jopt
    fm, ref = fm_cache(n), reference_forms(n)
    rng = np.random.default_rng(n)
    x = rng.standard_normal((fm.ndof, 3)) + 1j * rng.standard_normal(
        (fm.ndof, 3))

    def close(got, want):
        return np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    for name, mat in ref.forms.items():
        assert close(getattr(fm, name) @ x, mat @ x), name
        assert close(getattr(fm, name) @ x[:, 0], mat @ x[:, 0]), name
    for a, b, m in ((1.3, 1 / 1.3, 0.0), (0.05, 20.0, 1e3), (1.7, 0.4, 2.5)):
        for w in ((a**-2, b**-2, m**2, m / a, m / b),
                  (a**-2, b**-2, 0.0, m / a, m / b),
                  jopt._euler_weights(a, b, m)):
            assert close(weighted(fm, w) @ x, ref.weighted(w) @ x), w
    for col in x.T:
        parts = norm_parts(fm, SpinorField(col, n))
        want = [np.vdot(col, mat @ col).real for mat in ref.forms.values()]
        assert np.abs(np.subtract(parts, want)).max() <= 1e-14 * max(want)


def test_weighted_rejects_complex_weights(fm_cache):
    fm = fm_cache(8)
    with pytest.raises(ValueError, match="must be 5 real numbers"):
        weighted(fm, (1.0, 1.0, 0.0, 0.5j, 0.0))
    with pytest.raises(ValueError, match="must be 5 real numbers"):
        weighted(fm, (1.0, 1.0, 0.0))


def test_forms_store_only_the_1d_matrices():
    # The five forms of the n = 1024 grid are held as their 1D matrices:
    # the arrays a FormMatrices owns, apart from the shared constraint map,
    # stay below 1 MB, where the assembled sparse forms held 1,175 MB.
    fm = assemble(build_grid(1024))
    fm._matrices                            # a cached attribute
    arrays = []
    for value in vars(fm).values():
        for item in value if isinstance(value, tuple) else (value,):
            if sp.issparse(item):
                arrays += [item.data, item.indices, item.indptr]
            elif isinstance(item, np.ndarray):
                arrays.append(item)
            else:
                assert isinstance(item, int), type(item)
    assert sum(a.nbytes for a in arrays) < 2**20


@pytest.mark.parametrize("n", [4, 12, 30])
def test_symmetry_certificate_holds_for_assembled_forms(fm_cache, n):
    # The 1D matrices are real, symmetric and reversal-symmetric bit for
    # bit, so every real-weighted pencil is Hermitian and commutes with the
    # charge conjugation and the half turn.
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


def _planted(fm, line, entries):
    """A copy of the forms with ``entries`` ``{(d, i): delta}`` added to
    the band form of the 1D matrix ``line``."""
    import dataclasses
    lines = fm.lines.astype(complex if any(
        np.iscomplexobj(v) for v in entries.values()) else float)
    for (d, i), delta in entries.items():
        lines[line, 1 + d, i] += delta
    return dataclasses.replace(fm, lines=lines)


def test_symmetry_certificate_rejects_a_non_hermitian_form(fm_cache):
    # One off-diagonal stiffness entry moved, its transpose kept: K1 and K2
    # are not Hermitian.
    fm = fm_cache(12)
    delta = 1e-9 * np.abs(fm.lines[0]).max()
    with pytest.raises(ValueError, match="K1 and K2 are not Hermitian"):
        _planted(fm, 0, {(1, 5): delta})._symmetry_certificate


@pytest.mark.parametrize("name", ["K1", "K2", "M", "Tpar", "Teq"])
def test_symmetry_certificate_rejects_a_form_without_conjugation(fm_cache,
                                                                 name):
    # A Hermitian change that the charge conjugation C does not keep, in a
    # 1D matrix the form reads: C conjugates the nodal components, so an
    # imaginary pair of off-diagonal entries breaks it.
    from diracbox.errors import ConsistencyError
    fm = fm_cache(12)
    # the stiffness, mass or trace the form reads besides the mass
    line = {"K1": 0, "K2": 0, "M": 1, "Tpar": 2, "Teq": 2}[name]
    eps = 1e-3j * np.abs(fm.lines[line]).max()
    broken = _planted(fm, line, {(1, 5): eps, (-1, 6): -eps})
    with pytest.raises(ConsistencyError, match=f"{name}.*not commute with "
                       "the charge conjugation.*lacks the symmetry"):
        broken._symmetry_certificate


def test_symmetry_certificate_rejects_a_form_without_the_half_turn(fm_cache):
    # One end of the 1D mass changed: the form on the left edge differs
    # from the one on the right edge, its half-turn image.
    from diracbox.errors import ConsistencyError
    fm = fm_cache(12)
    broken = _planted(fm, 1, {(0, 0): 1e-9 * fm.lines[1, 1, 0]})
    with pytest.raises(ConsistencyError, match="do not commute with the "
                       "half turn"):
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
def test_forms_match_the_projection_bases_bit_for_bit(reference_forms,
                                                      projection_bases, n):
    # The reference forms, built from the 1D matrices the solver reads,
    # equal to the last bit and stored entry the projection-basis
    # reduction of the 1D matrices written out from their closed forms.
    h = 1.0 / n

    def tridiagonal(inner, off, end):
        diag = np.full(n + 1, inner)
        diag[[0, -1]] = end
        return sp.diags_array([np.full(n, off), diag, np.full(n, off)],
                              offsets=[-1, 0, 1])

    k = tridiagonal(2.0 / h, -1.0 / h, 1.0 / h)
    m = tridiagonal(2.0 * h / 3.0, h / 6.0, h / 3.0)
    t = tridiagonal(0.0, 0.0, 1.0)
    ref = projection_bases.of_grid(n)
    forms = reference_forms(n).forms
    pairs = {"K1": (k, m), "K2": (m, k), "M": (m, m), "Tpar": (t, m),
             "Teq": (m, t)}
    for name, (a, b) in pairs.items():
        _assert_same_bytes(forms[name],
                           ref.reduce(sp.kron(a, b, format="csr")))


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
