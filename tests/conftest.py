import json
import os

# One BLAS thread for the suite, set before anything loads numpy: the
# benchmark runs the same way, and threaded BLAS oversubscribes cores that
# other work already keeps busy.  Tests that need threads set them for
# their own subprocesses.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

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
