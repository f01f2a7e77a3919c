import math

import numpy as np
import pytest

from takayama import QuadratureError, QuadratureSettings, integrate
from takayama.quadrature import integrate_pieces


def test_subdivision_cap_raises():
    # Tens of thousands of oscillations need more panels than the cap.
    with pytest.raises(QuadratureError, match="within 400 panels"):
        integrate(lambda u: np.sin(1e5 * u), 0.0, 1.0, QuadratureSettings(abs_tol=1e-10))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_settings_refuse_a_tolerance_that_is_not_positive_and_finite(tol):
    with pytest.raises(ValueError, match="quadrature tolerance must be positive and finite"):
        QuadratureSettings(abs_tol=tol)


def test_step_with_its_breakpoint_is_exact():
    value = integrate(lambda u: np.where(u < 0.3, 1.0, 3.0), 0.0, 1.0,
                      breakpoints=[0.3, 1.5])
    assert abs(value - (0.3 + 3.0 * 0.7)) <= 1e-14


def test_constant_integrand_broadcasts():
    assert integrate(lambda u: 1.0, 0.0, 2.5) == pytest.approx(2.5, abs=1e-14)


def test_empty_interval_is_zero():
    assert integrate(np.exp, 1.0, 1.0) == 0.0


def test_leading_axes_share_one_subdivision():
    values = integrate(lambda u: np.stack([u, u * u, np.sin(u)]), 0.0, 1.0)
    assert values == pytest.approx([0.5, 1.0 / 3.0, 1.0 - math.cos(1.0)], abs=1e-14)


def test_endpoint_singularity_meets_tolerance():
    settings = QuadratureSettings(abs_tol=1e-10)
    assert abs(integrate(np.log, 0.0, 1.0, settings) + 1.0) <= 1e-10


def test_non_finite_integrand_raises():
    with pytest.raises(QuadratureError, match="not finite"):
        integrate(lambda u: np.where(u > 0.5, np.nan, 1.0), 0.0, 1.0)


def test_pieces_sum_to_an_antiderivative():
    # int_0^x -log(1 - u) du = x + (1 - x) log(1 - x), at 500 sorted points.
    points = np.sort(np.random.default_rng(3).random(500))
    edges = np.concatenate([[0.0], points])
    pieces = integrate_pieces(lambda u: -np.log1p(-u), edges, QuadratureSettings(abs_tol=1e-10))
    exact = points + (1.0 - points) * np.log1p(-points)
    assert np.abs(np.cumsum(pieces) - exact).max() <= 1e-10
