import warnings

import numpy as np
import pytest

from wsvd import WeightMatrix


def random_spd(rng, n, cond=100.0):
    # eigenvalues log-spaced in [1/cond, 1], random orthogonal frame
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = np.logspace(-np.log10(cond), 0, n)
    return (q * eig) @ q.T


def test_diagonal_basic():
    w = WeightMatrix.diagonal([4.0, 1.0, 0.25])
    assert w.n == 3
    assert np.array_equal(w.diag, [4.0, 1.0, 0.25])
    assert np.array_equal(w.as_array(), np.diag([4.0, 1.0, 0.25]))


def test_identity():
    w = WeightMatrix.identity(4)
    x = np.arange(4.0)
    assert np.array_equal(w.matvec(x), x)
    assert w.norm(x) == pytest.approx(np.linalg.norm(x))


def test_m_norm_diag4():
    # M = diag(4), x = (3): sqrt(9 * 4) = 6
    w = WeightMatrix.diagonal([4.0])
    assert w.norm(np.array([3.0])) == 6.0


def test_dense_symmetrizes():
    a = np.array([[2.0, 0.3], [0.1, 1.0]])
    w = WeightMatrix.dense(a)
    assert np.allclose(w.as_array(), (a + a.T) / 2)


def test_diagonal_rejects_nonpositive():
    with pytest.raises(ValueError, match="entry 1"):
        WeightMatrix.diagonal([1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        WeightMatrix.diagonal([1.0, 0.0])


def test_dense_rejects_indefinite():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(ValueError, match="positive definite"):
        WeightMatrix.dense(bad)


@pytest.mark.parametrize("diag, pivot", [([1.0, 1.0, -1.0], 2), ([-1.0, 1.0, 1.0], 0)])
def test_dense_names_the_failing_row(diag, pivot):
    with pytest.raises(ValueError, match=rf"not positive definite \(pivot {pivot}\)"):
        WeightMatrix.dense(np.diag(diag))


def test_dense_factors_once(monkeypatch):
    import scipy.linalg

    calls = []
    original = scipy.linalg.cholesky

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky", spy)
    WeightMatrix.dense(random_spd(np.random.default_rng(7), 5))
    assert len(calls) == 1


def test_dense_rejects_nonfinite():
    with pytest.raises(ValueError):
        WeightMatrix.dense(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_condition_warning():
    with pytest.warns(UserWarning, match="condition"):
        WeightMatrix.diagonal([1e14, 1.0])


@pytest.mark.parametrize("make", [
    lambda: WeightMatrix([1e14, 1.0]),
    lambda: WeightMatrix(np.diag([1e14, 1.0])),
    lambda: WeightMatrix.diagonal([1e14, 1.0]),
    lambda: WeightMatrix.dense(np.diag([1e14, 1.0])),
], ids=["direct-diagonal", "direct-dense", "diagonal", "dense"])
def test_the_condition_warning_names_the_line_that_constructs_the_weight(make):
    # each lambda is its own line; a classmethod's frame in weights.py is
    # skipped, the direct call has none to skip
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        make()
    [warning] = caught
    assert (warning.filename, warning.lineno) == (__file__, make.__code__.co_firstlineno)


def test_a_dense_m_whose_symmetrization_would_overflow_is_factored():
    # every entry of m + m.T overflows; halving first keeps M's own entries
    m = [[1.5e308, 1e308], [1e308, 1.5e308]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = WeightMatrix.dense(m)
    assert np.array_equal(w.as_array(), m)
    ell = w.factor()
    assert np.isfinite(ell).all()
    assert np.allclose((ell.T / 1e154) @ (ell / 1e154), np.array(m) / 1e308, rtol=1e-14)


def test_a_dense_m_keeps_the_bits_of_the_plain_symmetrization():
    # subnormal off-diagonal entries, where halving first would round
    tiny = np.nextafter(0.0, 1.0)
    m = np.eye(3)
    m[np.triu_indices(3, 1)] = tiny * np.array([1.0, 3.0, 5.0])
    m[np.tril_indices(3, -1)] = tiny * np.array([1.0, 1.0, 2.0])
    want = 0.5 * (m + m.T)
    assert not np.array_equal(0.5 * m + 0.5 * m.T, want)
    assert WeightMatrix.dense(m).as_array().tobytes() == want.tobytes()


def test_factor_identity_dense():
    rng = np.random.default_rng(3)
    m = random_spd(rng, 12, cond=1e3)
    w = WeightMatrix.dense(m)
    ell = w.factor()
    # lower-triangular factor with L^T L = M
    assert np.allclose(ell, np.tril(ell))
    assert np.linalg.norm(ell.T @ ell - m) <= 1e-12 * np.linalg.norm(m)


def test_factor_norm_equivalence():
    rng = np.random.default_rng(4)
    m = random_spd(rng, 9)
    w = WeightMatrix.dense(m)
    for _ in range(10):
        x = rng.standard_normal(9)
        assert np.linalg.norm(w.factor() @ x) == pytest.approx(w.norm(x), rel=1e-12)


def test_inner_symmetry_and_positivity():
    rng = np.random.default_rng(5)
    m = random_spd(rng, 7)
    w = WeightMatrix.dense(m)
    x, y = rng.standard_normal(7), rng.standard_normal(7)
    assert w.inner(x, y) == pytest.approx(w.inner(y, x), rel=1e-12)
    assert w.inner(x, x) > 0


def test_matvec_matrix_argument():
    w = WeightMatrix.diagonal([2.0, 3.0])
    b = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(w.matvec(b), np.diag([2.0, 3.0]))


def test_solve_inverts_matvec():
    rng = np.random.default_rng(6)
    for w in (WeightMatrix.diagonal(rng.uniform(0.5, 2.0, 8)),
              WeightMatrix.dense(random_spd(rng, 8))):
        x = rng.standard_normal(8)
        assert np.allclose(w.solve(w.matvec(x)), x, atol=1e-12)


def test_solve_factor_inverts_apply_factor():
    rng = np.random.default_rng(7)
    for w in (WeightMatrix.diagonal(rng.uniform(0.5, 2.0, 6)),
              WeightMatrix.dense(random_spd(rng, 6))):
        x = rng.standard_normal(6)
        assert np.allclose(w.solve_factor(w.factor() @ x), x, atol=1e-12)
        # transposed pair: L^T then solve with transpose=True
        y = w.factor().T @ x
        assert np.allclose(w.solve_factor(y, transpose=True), x, atol=1e-12)


def test_solve_factor_matrix_argument():
    rng = np.random.default_rng(8)
    w = WeightMatrix.dense(random_spd(rng, 5))
    b = rng.standard_normal((5, 3))
    got = w.solve_factor(b)
    for j in range(3):
        assert np.allclose(got[:, j], w.solve_factor(b[:, j]))


def test_norm_zero_vector():
    w = WeightMatrix.diagonal([1.0, 2.0])
    assert w.norm(np.zeros(2)) == 0.0


@pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e170, 1e300])
def test_norm_of_a_vector_whose_squares_underflow_or_overflow(scale):
    # ||c (3, 4)||_M with M = diag(1, 4) is sqrt(9 + 64) c, though c^2 is out
    # of range at these scales
    w = WeightMatrix.diagonal([1.0, 4.0])
    assert w.norm(np.array([3.0, 4.0]) * scale) == pytest.approx(np.sqrt(73.0) * scale,
                                                                 rel=1e-14, abs=0)


def test_diag_property_requires_diagonal():
    rng = np.random.default_rng(9)
    w = WeightMatrix.dense(random_spd(rng, 4))
    with pytest.raises(ValueError):
        _ = w.diag


def test_a_diagonal_weight_keeps_its_own_read_only_entries():
    arr = np.array([1.0, 4.0])
    w = WeightMatrix.diagonal(arr)
    with pytest.raises(ValueError, match="read-only"):
        w.diag[0] = 9.0
    arr[0] = 9.0  # the caller's array is not the stored one
    assert np.array_equal(w.matvec([1.0, 1.0]), [1.0, 4.0])
    assert w.norm([1.0, 0.0]) == 1.0
    assert np.array_equal(w.factor(), np.diag([1.0, 2.0]))


def test_a_dense_weight_keeps_its_own_read_only_matrix_and_factor():
    rng = np.random.default_rng(10)
    arr = random_spd(rng, 4)
    w = WeightMatrix.dense(arr)
    stored, factor = w.as_array(), w.factor().copy()
    arr[0, 0] += 5.0
    assert np.array_equal(w.as_array(), stored)
    assert np.array_equal(w.factor(), factor)
    with pytest.raises(ValueError, match="read-only"):
        w.factor()[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        w._m[0, 0] = 1.0


@pytest.mark.parametrize("m, message", [
    ([[1.0, np.nan], [np.nan, 1.0]], "non-finite"),
    ([[np.inf, 0.0], [0.0, 1.0]], "non-finite"),
    ([1.0, np.nan], "non-finite"),
    ([np.inf, 1.0], "non-finite"),
    (np.ones((2, 2, 2)), r"got shape \(2, 2, 2\)"),
    (np.ones((2, 3)), r"got shape \(2, 3\)"),
    (np.zeros(0), "at least 1x1"),
    (np.zeros((0, 0)), "at least 1x1"),
    ([[1.0, 2.0], [2.0, 1.0]], r"not positive definite \(pivot 0\)"),
    ([1.0, -2.0], "diagonal entry 1"),
], ids=["nan-dense", "inf-dense", "nan-diagonal", "inf-diagonal", "3-d", "non-square",
        "empty-diagonal", "empty-dense", "non-spd", "non-positive-diagonal"])
def test_the_constructor_checks_every_m(m, message):
    with pytest.raises(ValueError, match=message):
        WeightMatrix(m)


def test_the_classmethods_fix_the_dimension():
    with pytest.raises(ValueError, match="diagonal weights must be one-dimensional"):
        WeightMatrix.diagonal(np.eye(2))
    with pytest.raises(ValueError, match="dense weight matrix must be square"):
        WeightMatrix.dense([1.0, 2.0])


def test_the_constructor_takes_any_array_like_and_derives_its_kind():
    m = [[2.0, 0.5], [0.1, 1.0]]
    w = WeightMatrix(m)
    assert (w.kind, w.n) == ("dense", 2)
    assert np.array_equal(w.as_array(), WeightMatrix.dense(m).as_array())
    assert np.array_equal(w.factor(), WeightMatrix.dense(m).factor())
    d = WeightMatrix([4.0, 1.0, 0.25])
    assert (d.kind, d.n) == ("diagonal", 3)
    assert np.array_equal(d.factor(), np.diag([2.0, 1.0, 0.5]))


@pytest.mark.parametrize("op", ["matvec", "solve", "norm"])
def test_an_operand_of_another_leading_dimension_is_rejected(op):
    w = WeightMatrix.diagonal([4.0, 1.0, 0.25])
    with pytest.raises(ValueError, match="leading dimension 2, weight matrix is 3x3"):
        getattr(w, op)(np.ones(2))
