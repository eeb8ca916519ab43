"""The Gauss-Legendre rule: Newton's method on the three-term recurrence
gives numpy's `leggauss` rule to a few ulps, without LAPACK."""

import numpy as np
import pytest

from nematic_walls.quadrature import gauss_legendre

ORDERS = range(1, 17)


@pytest.mark.parametrize("n", ORDERS)
def test_matches_leggauss(n):
    """Nodes within 2 ulp of leggauss's, weights within 1e-13 relative."""
    x, w = gauss_legendre(n)
    X, W = np.polynomial.legendre.leggauss(n)
    assert np.all(np.abs(x - X) <= 2 * np.spacing(np.abs(X))), x - X
    assert np.abs(w / W - 1.0).max() <= 1e-13


@pytest.mark.parametrize("n", ORDERS)
def test_symmetric_rule_with_weights_summing_to_2(n):
    x, w = gauss_legendre(n)
    assert np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(w > 0.0)
    assert abs(w.sum() - 2.0) <= 1e-15


@pytest.mark.parametrize("n", ORDERS)
def test_exact_for_monomials_up_to_degree_2n_minus_1(n):
    x, w = gauss_legendre(n)
    for d in range(2 * n):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs(np.dot(w, x ** d) - exact) <= 1e-14, d


def test_order_below_one_rejected():
    with pytest.raises(ValueError):
        gauss_legendre(0)
