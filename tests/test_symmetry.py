import numpy as np
import pytest
import scipy.sparse as sp

from diracbox import (
    ClusterResolutionError,
    ConsistencyError,
    SpinorField,
    build_grid,
    classify_symmetry,
    commutation_check,
    ground_cluster,
    quotient,
    random_field,
    reconstruct,
    rotate,
    rotation_deviation,
    rotation_map,
    separability_residual,
    smallest_eigenpair,
    symmetrize,
    trial_dirichlet,
    verify_norm_identities,
)
from diracbox import symmetry
from diracbox.formgrid import constraint_map

FOURTH_ROOTS = (1, 1j, -1, -1j)


def _m_norm(fm, v):
    return np.sqrt(np.real(np.vdot(v, fm.M @ v)))


def test_fourth_power_is_identity_bitwise():
    psi = random_field(build_grid(12), seed=0)
    out = psi
    for _ in range(4):
        out = rotate(out)
    assert np.array_equal(out.values, psi.values)


def test_rotation_is_mass_isometry(fm_cache):
    fm = fm_cache(12)
    for seed in range(5):
        psi = random_field(build_grid(12), seed=seed)
        before = _m_norm(fm, psi.values)
        after = _m_norm(fm, rotate(psi).values)
        assert abs(after - before) <= 1e-14 * before


def test_boundary_classes_cycle():
    # rotating a field supported on one edge lands it on the next edge
    n = 8
    from diracbox.formgrid import LEFT, TOP, constraint_map
    cmap = constraint_map(n)
    vals = np.zeros(cmap.ndof, dtype=complex)
    left = cmap.node_class == LEFT
    vals[cmap.free1[left & (cmap.free1 >= 0)]] = 1.0
    u1, _ = reconstruct(rotate(SpinorField(vals, n)), cmap)
    support = np.abs(u1) > 0
    top = cmap.node_class == TOP
    assert support[top].any()
    assert not support[~top].any()


def test_rotate_trial_dirichlet_is_phase():
    td = trial_dirichlet(build_grid(16))
    rotated = rotate(td)
    assert np.allclose(rotated.values, 1j * td.values, atol=1e-15)


def test_square_form_invariance(fm_cache):
    fm = fm_cache(16)
    assert commutation_check(fm, 1.0, 0.0) <= 1e-12
    assert commutation_check(fm, 0.7, 2.5) <= 1e-12


def test_rectangle_quotient_swaps_axes(fm_cache):
    fm = fm_cache(12)
    psi = random_field(build_grid(12), seed=2)
    q_direct = quotient(fm, 1.4, 0.6, 0.8, psi)
    q_rotated = quotient(fm, 0.6, 1.4, 0.8, rotate(psi))
    assert q_rotated == pytest.approx(q_direct, rel=1e-13)


@pytest.mark.parametrize("n", [4, 12, 30])
def test_charge_conjugation_commutes_with_every_form(fm_cache, n):
    # C is antilinear: C x = phase * conj(x[perm]).  It commutes with the
    # five grid forms, and C R = -i R C holds bit for bit.
    fm = fm_cache(n)
    rot = rotation_map(n)
    rng = np.random.default_rng(n)
    x = (rng.standard_normal((fm.ndof, 3))
         + 1j * rng.standard_normal((fm.ndof, 3)))
    for mat in (fm.K1, fm.K2, fm.M, fm.Tpar, fm.Teq):
        image = mat @ x
        dev = np.abs(mat @ rot.conjugate(x) - rot.conjugate(image)).max()
        assert dev <= 1e-14 * np.abs(image).max()
    assert np.array_equal(rot.conjugate(rot.apply(x)),
                          -1j * rot.apply(rot.conjugate(x)))
    assert np.array_equal(rot.conjugate(rot.conjugate(x)), x)


@pytest.mark.parametrize("n", [4, 12, 30])
def test_gathers_match_the_node_formulas(projection_bases, n):
    # Reference matrices built from the node formulas on full fields,
    # projected back through the constraint's projection bases B:
    # (R u)(x1, x2) = (i u1(-x2, x1), u2(-x2, x1)) and
    # C(u1, u2) = (conj u2, conj u1).  R, R^2 and C applied by gathers
    # equal them bit for bit.
    cmap = constraint_map(n)
    npts = n + 1
    i, j = np.indices((npts, npts))
    # node (i, j) sits at x = -1/2 + (i, j)/n, so (-x2, x1) is node (n-j, i)
    turn = sp.csr_matrix((np.ones(npts**2), (np.arange(npts**2),
                                             ((n - j) * npts + i).ravel())))
    ident = sp.identity(npts**2)
    swap = sp.bmat([[None, ident], [ident, None]])
    ref = projection_bases.of_grid(n)
    basis = sp.vstack([ref.basis1, ref.basis2]).tocsr()
    # B^H B is diagonal: 1 on interior dofs, 1 + |omega|^2 = 2 on edge dofs
    left = sp.diags(1.0 / (basis.getH() @ basis).diagonal()) @ basis.getH()
    rmat = (left @ sp.block_diag([1j * turn, turn]) @ basis).tocsr()
    half = (rmat @ rmat).tocsr()
    cmat = (left @ swap @ basis.conj()).tocsr()
    rot = rotation_map(n)
    rng = np.random.default_rng(n)
    x = (rng.standard_normal((cmap.ndof, 3))
         + 1j * rng.standard_normal((cmap.ndof, 3)))
    for v in (x, x[:, 1]):
        assert np.array_equal(rot.apply(v), rmat @ v)
        assert np.array_equal(rot.half_turn(v), half @ v)
        assert np.array_equal(rot.conjugate(v), cmat @ v.conj())


@pytest.mark.parametrize("field", ["phase", "conj_phase"])
def test_rotation_self_test_rejects_one_flipped_phase(field):
    # The one-time self-test of rotation_map reads exact identities on the
    # arrays of R and C; one phase of either flipped breaks one of them.
    rot = rotation_map(12)
    arrays = {k: getattr(rot, k)
              for k in ("perm", "phase", "conj_perm", "conj_phase")}
    assert np.array_equal(symmetry._self_tested(12, **arrays).half_phase,
                          rot.half_phase)
    arrays[field] = arrays[field].copy()
    arrays[field][7] *= -1
    with pytest.raises(ConsistencyError):
        symmetry._self_tested(12, **arrays)


def test_half_turn_invariance_rectangle(fm_cache):
    fm = fm_cache(12)
    rot = rotation_map(12)
    psi = random_field(build_grid(12), seed=4)
    half = SpinorField(rot.half_turn(psi.values), 12)
    q1 = quotient(fm, 1.4, 0.6, 0.8, psi)
    q2 = quotient(fm, 1.4, 0.6, 0.8, half)
    assert q2 == pytest.approx(q1, rel=1e-13)


def test_symmetrize_produces_exact_eigenfields(fm_cache):
    fm = fm_cache(12)
    base = random_field(build_grid(12), seed=6)
    rot = rotation_map(12)
    for alpha in FOURTH_ROOTS:
        sym = symmetrize(base, alpha)
        dev = np.linalg.norm(rot.apply(sym.values) - alpha * sym.values)
        assert dev <= 1e-13 * np.linalg.norm(sym.values)
        d1, d2 = verify_norm_identities(sym, fm)
        assert d1 <= 1e-12 and d2 <= 1e-12


def test_symmetrize_partitions_the_field(fm_cache):
    fm = fm_cache(12)
    base = random_field(build_grid(12), seed=7)
    total = sum(_m_norm(fm, symmetrize(base, alpha).values) ** 2
                for alpha in FOURTH_ROOTS)
    assert total == pytest.approx(_m_norm(fm, base.values) ** 2, rel=1e-12)


def test_classify_square_ground_cluster(fm_cache):
    fm = fm_cache(16)
    _, cluster = ground_cluster(fm, 1.0, 1.0, 0.0)
    classes = classify_symmetry(fm, cluster, square=True)
    assert len(classes) == len(cluster)
    for cls in classes:
        assert abs(cls.alpha**4 - 1) <= 1e-6
        assert cls.deviation <= 1e-6
        d1, d2 = verify_norm_identities(cls.field, fm)
        assert d1 <= 1e-6 and d2 <= 1e-6


def test_classify_single_member_cluster(fm_cache):
    # rank-1 case: an exactly symmetrised field is its own representative
    fm = fm_cache(16)
    sym = symmetrize(random_field(build_grid(16), seed=13), -1j)
    sym = SpinorField(sym.values / _m_norm(fm, sym.values), 16)
    classes = classify_symmetry(fm, [(1.0, sym)], square=True)
    assert len(classes) == 1
    assert classes[0].alpha == pytest.approx(-1j, abs=1e-10)


def test_classify_accepts_raw_vector_pairs(fm_cache, reference_forms):
    # the (mu, vector) pairs of smallest_eigenpair classify exactly like the
    # same pairs wrapped as SpinorFields
    fm, ref = fm_cache(12), reference_forms(12)
    pairs = smallest_eigenpair(ref.weighted((1, 1, 0, 0, 0)), ref.M, k=2)
    raw = classify_symmetry(fm, pairs, square=True)
    wrapped = classify_symmetry(
        fm, [(mu, SpinorField(v, 12)) for mu, v in pairs], square=True)
    assert len(raw) == len(wrapped) == 2
    assert [c.alpha for c in raw] == [c.alpha for c in wrapped]
    for r, w in zip(raw, wrapped):
        assert r.field.n == 12
        assert np.array_equal(r.field.values, w.field.values)


def test_classify_rejects_truncated_degenerate_cluster(fm_cache):
    # The class solve returns one member of the doubly degenerate ground
    # space per half-turn class, each R-invariant alone; a generic member,
    # here their normalised sum, is not.
    fm = fm_cache(16)
    _, cluster = ground_cluster(fm, 1.0, 1.0, 0.0)
    assert len(cluster) == 2
    (mu, first), (_, second) = cluster
    mixed = SpinorField((first.values + second.values) / np.sqrt(2.0), 16)
    with pytest.raises(ClusterResolutionError):
        classify_symmetry(fm, [(mu, mixed)], square=True)


def test_classify_rectangle_half_turn(fm_cache):
    fm = fm_cache(16)
    _, cluster = ground_cluster(fm, 1.5, 1 / 1.5, 0.5)
    classes = classify_symmetry(fm, cluster, square=False)
    for cls in classes:
        assert abs(cls.alpha**2 - 1) <= 1e-6


def test_classify_rejects_non_invariant_span(fm_cache):
    fm = fm_cache(12)
    psi = random_field(build_grid(12), seed=9)
    psi = SpinorField(psi.values / _m_norm(fm, psi.values), 12)
    with pytest.raises(ClusterResolutionError):
        classify_symmetry(fm, [(1.0, psi)], square=True)


def test_classify_rejects_spread_cluster(fm_cache, reference_forms):
    fm, ref = fm_cache(16), reference_forms(16)
    pairs = smallest_eigenpair(ref.weighted((1, 1, 0, 0, 0)), ref.M, k=4)
    fake = [(mu, SpinorField(v, 16)) for mu, v in pairs]  # two clusters mixed
    with pytest.raises(ClusterResolutionError):
        classify_symmetry(fm, fake, square=True)


def test_norm_identities_controls(fm_cache):
    fm = fm_cache(16)
    td = trial_dirichlet(build_grid(16))
    d1, d2 = verify_norm_identities(td, fm)
    assert d1 <= 1e-14
    assert d2 == 0.0          # both traces vanish
    dr1, _ = verify_norm_identities(random_field(build_grid(16), seed=1), fm)
    assert dr1 > 1e-4         # generic field has no reason to balance


def test_separability_of_product_field():
    td = trial_dirichlet(build_grid(16))
    s1, s2 = separability_residual(td)
    assert s1 <= 1e-13
    assert s2 is None


def test_separability_of_ground_state(fm_cache):
    fm = fm_cache(16)
    _, cluster = ground_cluster(fm, 1.0, 1.0, 0.0)
    classes = classify_symmetry(fm, cluster, square=True)
    s1, s2 = separability_residual(classes[0].field)
    assert min(s1, s2) > 1e-3


def test_rotation_deviation_helper(fm_cache):
    fm = fm_cache(12)
    base = random_field(build_grid(12), seed=11)
    sym = symmetrize(base, 1j)
    alpha, dev = rotation_deviation(fm, sym)
    assert alpha == pytest.approx(1j, abs=1e-10)
    assert dev <= 1e-12
    _, dev_rand = rotation_deviation(fm, base)
    assert dev_rand > 1e-2
