import numpy as np

from cptsim.kernels import (
    diag_indices_vec,
    rk4_superop,
    sample_indices,
    transpose_indices,
)


def test_transpose_indices():
    d = 3
    idx = transpose_indices(d)
    m = np.arange(d * d, dtype=np.complex128).reshape(d, d)
    np.testing.assert_array_equal(m.ravel()[idx].reshape(d, d), m.T)


def test_diag_indices_vec():
    d = 4
    idx = diag_indices_vec(d)
    m = np.zeros((d, d))
    m.ravel()[idx] = 1.0
    np.testing.assert_array_equal(m, np.eye(d))


def test_sample_indices_include_endpoints():
    idx = sample_indices(10, 3)
    np.testing.assert_array_equal(idx, [0, 3, 6, 9, 10])
    idx = sample_indices(9, 3)
    np.testing.assert_array_equal(idx, [0, 3, 6, 9])
    idx = sample_indices(5, 100)
    np.testing.assert_array_equal(idx, [0, 5])


def test_rk4_decay_kernel_matches_exponential():
    # plain contraction generator: v' = -a v with known solution
    d = 2
    a = 0.7
    lmat = -a * np.eye(d * d, dtype=np.complex128)
    v0 = (np.eye(d, dtype=np.complex128) / d).ravel()
    # disable renormalization so the raw scheme is visible
    samples, n_renorm, drift = rk4_superop(
        lmat,
        v0,
        0.01,
        100,
        sample_indices(100, 100),
        transpose_indices(d),
        diag_indices_vec(d),
        np.inf,
    )
    expected = v0 * np.exp(-a * 1.0)
    np.testing.assert_allclose(samples[-1], expected, atol=1e-9)
    assert n_renorm == 0


def test_rk4_renormalization_counter():
    # trace-shrinking generator trips the drift guard every step
    d = 2
    lmat = -0.5 * np.eye(d * d, dtype=np.complex128)
    v0 = (np.eye(d, dtype=np.complex128) / d).ravel()
    samples, n_renorm, drift = rk4_superop(
        lmat,
        v0,
        0.01,
        50,
        sample_indices(50, 10),
        transpose_indices(d),
        diag_indices_vec(d),
        1e-12,
    )
    assert n_renorm > 0
    traces = samples[:, diag_indices_vec(d)].sum(axis=1).real
    np.testing.assert_allclose(traces, 1.0, atol=1e-12)


def test_package_exports_resolve():
    import cptsim

    missing = [name for name in cptsim.__all__ if not hasattr(cptsim, name)]
    assert missing == []
    assert cptsim.backend_name() == "numpy"
