import json
import os

# One BLAS thread for the suite, set before anything loads numpy: the
# benchmark runs the same way, and threaded BLAS oversubscribes cores that
# other work already keeps busy.  Tests that need threads set them for
# their own subprocesses.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.sparse as sp  # noqa: E402

from diracbox import assemble, build_grid, lambda1_2d  # noqa: E402

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden.json")


@pytest.fixture(scope="session")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def fm_cache():
    """The form matrices of an n-cell grid (assembled once per process)."""
    return lambda n: assemble(build_grid(n))


@pytest.fixture(scope="session")
def solve_memo():
    """Memoized single-point solves shared across test modules."""
    memo = {}

    def solve(a, b, m, n, tol=1e-10, seed=0):
        key = (a, b, m, n, tol, seed)
        if key not in memo:
            memo[key] = lambda1_2d(a, b, m, n, tol, seed=seed)
        return memo[key]

    return solve


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep CLI result caches out of the user's home directory."""
    monkeypatch.setenv("DIRACBOX_CACHE_DIR", str(tmp_path / "diracbox-cache"))


class ProjectionBases:
    """Reference form of the boundary-constraint elimination: two sparse
    projection bases ``B1``, ``B2`` with ``u1 = B1 x`` and ``u2 = B2 x`` for
    a reduced vector ``x``.

    Built from the dof numbers ``free1``/``free2`` (-1 where eliminated)
    and the edge factors ``omega``: ``B1`` reads each node's u1 dof,
    ``B2`` its u2 dof inside and ``omega`` times its u1 dof at a node
    without one.
    """

    def __init__(self, free1, free2, omega):
        free1, free2, omega = (np.ravel(v) for v in (free1, free2, omega))
        nodes, ndof = free1.size, max(free1.max(), free2.max()) + 1
        has1, inner = free1 >= 0, free2 >= 0
        edge = has1 & ~inner
        self.basis1 = sp.csr_matrix(
            (np.ones(has1.sum(), dtype=complex),
             (np.flatnonzero(has1), free1[has1])), shape=(nodes, ndof))
        self.basis2 = sp.csr_matrix(
            (np.concatenate([np.ones(inner.sum(), dtype=complex),
                             omega[edge]]),
             (np.concatenate([np.flatnonzero(inner), np.flatnonzero(edge)]),
              np.concatenate([free2[inner], free1[edge]]))),
            shape=(nodes, ndof))

    @classmethod
    def of_grid(cls, n):
        """The bases of the n-cell grid's constraint map, the edge factors
        taken from ``formgrid.OMEGA`` by node class."""
        from diracbox.formgrid import OMEGA, constraint_map
        cmap = constraint_map(n)
        omega = np.zeros(cmap.node_class.shape, dtype=complex)
        for node_class, w in OMEGA.items():
            omega[cmap.node_class == node_class] = w
        return cls(cmap.free1, cmap.free2, omega)

    def reduce(self, full):
        """Hermitian part of ``B1^H A B1 + B2^H A B2``, canonical CSR."""
        b1, b2 = self.basis1, self.basis2
        red = (b1.conj().T @ full @ b1) + (b2.conj().T @ full @ b2)
        out = sp.csr_matrix((red + red.conj().T) * 0.5)
        out.eliminate_zeros()
        out.sort_indices()
        return out


@pytest.fixture(scope="session")
def projection_bases():
    """The reference elimination, ``ProjectionBases``."""
    return ProjectionBases


class ReferenceForms:
    """Reference assembly of the five grid forms as sparse matrices,
    independent of the Kronecker operators that the solver applies.

    Each reduced matrix is built entry by entry from the Kronecker product
    of its 1D element matrices, by the index-gather reduction that
    ``formgrid._reduce`` applies to the 1D problem, itself checked against
    ``ProjectionBases``.
    """

    def __init__(self, n):
        from diracbox.formgrid import (FORMS, _PAIRS, _matrices_1d, _reduce,
                                       constraint_map)
        cmap = constraint_map(n)
        lines = _matrices_1d(n)
        self.n, self.ndof = n, cmap.ndof
        self.forms = {
            name: _reduce(sp.kron(lines[a], lines[b], format="coo"),
                          cmap.free1, cmap.free2, cmap.factor, cmap.ndof)
            for name, (a, b) in zip(FORMS, _PAIRS)}
        self.M = self.forms["M"]

    def weighted(self, w):
        """The sparse sum of the weighted forms, term by term."""
        terms = [wi * mat for wi, mat in zip(w, self.forms.values())
                 if wi != 0.0]
        return sp.csr_matrix(sum(terms[1:], terms[0]))

    def class_blocks(self, basis, w):
        """The half-turn class blocks ``{beta: Q_beta}`` of the edge block
        ``Q_BB`` of ``weighted(w)``, sliced from the matrix: its left and
        bottom rows on the class's vectors, whose right and top values are
        ``-beta`` times the left and bottom ones they are images of."""
        idx = basis.boundary
        coo = self.weighted(w)[idx][:, idx].tocoo()
        size = 2 * (self.n - 1)
        own, image = coo.row < size, coo.col >= size
        out = {}
        for beta in (1, -1):
            block = np.zeros((size, size), dtype=complex)
            np.add.at(block, (coo.row[own], coo.col[own] % size),
                      np.where(image[own], -beta, 1.0) * coo.data[own])
            out[beta] = block
        return out


@pytest.fixture(scope="session")
def reference_forms():
    """``ReferenceForms`` of an n-cell grid (built once per n)."""
    memo = {}

    def get(n):
        if n not in memo:
            memo[n] = ReferenceForms(n)
        return memo[n]

    return get
