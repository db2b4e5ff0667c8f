import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocp.grid import Grid, NonfiniteFieldError, build_laplacian, check_finite
from ocp.harness.reports import write_csv
from support import read_field_csv


def test_grid_rejects_empty():
    with pytest.raises(ValueError):
        Grid(0)


def test_mesh_width_definition():
    for n in (1, 2, 7, 49, 450):
        assert Grid(n).h == 1.0 / (n + 1)


def test_points_match_indexing():
    g = Grid(3)
    x1, x2 = g.points()
    k = 2 * g.n  # (i, j) = (2, 0)
    assert x1[k] == pytest.approx(3 * g.h)
    assert x2[k] == pytest.approx(1 * g.h)


def test_laplacian_single_point():
    # one interior point, h = 1/2: the stencil reduces to 4/h^2 = 16
    a = build_laplacian(Grid(1))
    assert a.shape == (1, 1)
    assert a[0, 0] == 16.0


def test_laplacian_two_points():
    # n = 2, h = 1/3: diagonal 4/h^2 = 36, neighbor coupling -1/h^2 = -9
    a = build_laplacian(Grid(2)).toarray()
    assert np.all(np.diag(a) == 36.0)
    # flat indices of (0, 0), (0, 1), (1, 0), (1, 1) are 0, 1, 2, 3
    assert a[0, 1] == -9.0
    assert a[0, 2] == -9.0
    assert a[0, 3] == 0.0


def test_laplacian_exactly_symmetric():
    a = build_laplacian(Grid(13))
    assert (a - a.T).nnz == 0


def test_laplacian_row_coupling_is_local():
    g = Grid(6)
    a = build_laplacian(g).tocsr()
    for k in range(g.size):
        i, j = divmod(k, g.n)
        cols = set(a.indices[a.indptr[k]:a.indptr[k + 1]]) - {k}
        neighbors = {(i + di) * g.n + j + dj
                     for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))
                     if 0 <= i + di < g.n and 0 <= j + dj < g.n}
        assert cols == neighbors


def test_laplacian_eigenfunction_accuracy():
    # sin(pi x1) sin(pi x2) is an eigenfunction of -Laplace with value 2 pi^2;
    # the 5-point stencil reproduces it to O(h^2)
    g = Grid(64)
    x1, x2 = g.points()
    v = np.sin(np.pi * x1) * np.sin(np.pi * x2)
    err = np.max(np.abs(build_laplacian(g) @ v - 2.0 * np.pi ** 2 * v))
    # frozen bound: truncation constant is pi^4/6 * max|v| ~ 16.2, times h^2
    assert err <= 17.0 * g.h ** 2


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_laplacian_positive_definite(n, seed):
    g = Grid(n)
    v = np.random.default_rng(seed).standard_normal(g.size)
    quad = float(v @ (build_laplacian(g) @ v))
    assert quad > 0.0 or not np.any(v)


def test_check_finite_reports_offending_index():
    v = np.array([1.0, np.inf, 3.0, np.nan])
    with pytest.raises(NonfiniteFieldError) as info:
        check_finite(v, "field")
    assert info.value.index == 1


def test_check_finite_passes_clean_fields():
    v = np.arange(5.0)
    assert check_finite(v, "here") is v


def test_h1_norm_on_constant_block():
    # single interior point with value 1: two unit jumps per axis
    g = Grid(1)
    v = np.ones(1)
    expected = np.sqrt(g.h ** 2 * (1.0 + 2.0 / g.h ** 2 + 2.0 / g.h ** 2))
    assert g.h1_norm(v) == pytest.approx(expected)


def test_field_csv_roundtrip(tmp_path):
    g = Grid(5)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(g.size) * 1e6
    path = tmp_path / "field.csv"
    write_csv(path, None, v.reshape(g.n, g.n))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == g.n
    assert np.array_equal(read_field_csv(path, g), v)
