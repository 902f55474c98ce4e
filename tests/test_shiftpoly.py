"""The filter denominator polynomial."""

import numpy as np
import pytest

from diagfilter.shiftpoly import pole_polynomial


def test_pole_polynomial_halved_pole_values():
    # (q - 1/2)^3 / (1/2)^3 = 8q^3 - 12q^2 + 6q - 1, ascending order
    coeffs = pole_polynomial(0.5, 3)
    assert np.array_equal(coeffs, np.array([-1.0, 6.0, -12.0, 8.0]))


def test_pole_polynomial_zero_pole_is_pure_delay():
    for degree in (1, 2, 3, 5):
        coeffs = pole_polynomial(0.0, degree)
        expected = np.zeros(degree + 1)
        expected[-1] = 1.0
        assert np.array_equal(coeffs, expected)


def test_pole_polynomial_normalised_at_one():
    rng = np.random.default_rng(7)
    for _ in range(50):
        pole = rng.uniform(-0.9, 0.9)
        degree = int(rng.integers(1, 6))
        coeffs = pole_polynomial(pole, degree)
        assert abs(np.sum(coeffs) - 1.0) < 1e-12
        # evaluating at the pole gives zero
        powers = pole ** np.arange(degree + 1)
        assert abs(coeffs @ powers) < 1e-12


def test_pole_polynomial_rejects_unit_pole():
    with pytest.raises(ValueError):
        pole_polynomial(1.0, 3)

