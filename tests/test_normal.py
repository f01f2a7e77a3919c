"""The package's numpy normal law and the lognormal built on it."""
import math
from statistics import NormalDist

import numpy as np
import pytest

from takayama import lognormal, normal_quantile
from takayama.normal import ndtr, ndtri

INV_CDF = NormalDist().inv_cdf


def _probability_grid():
    """Both tails down to 1e-300 and 1 - 1e-16, plus the central branch."""
    low = np.logspace(-300, math.log10(0.5), 6000)
    high = 1.0 - np.logspace(-16, math.log10(0.5), 2000)
    return np.unique(np.concatenate([low, high, np.linspace(0.01, 0.99, 1001)]))


def test_ndtri_matches_statistics_inv_cdf():
    p = _probability_grid()
    ref = np.array([INV_CDF(v) for v in p])
    got = ndtri(p)
    nonzero = ref != 0.0
    assert np.all(got[~nonzero] == 0.0)
    assert np.max(np.abs(got[nonzero] / ref[nonzero] - 1.0)) <= 4e-16


def test_ndtri_matches_scipy_ndtri():
    from scipy.special import ndtri as scipy_ndtri
    p = _probability_grid()
    ref = scipy_ndtri(p)
    nonzero = ref != 0.0
    assert np.max(np.abs(ndtri(p)[nonzero] / ref[nonzero] - 1.0)) <= 2e-15


def test_ndtri_endpoints_and_outside():
    assert ndtri(0.0) == -math.inf
    assert ndtri(1.0) == math.inf
    assert np.all(np.isnan(ndtri([-0.1, 1.1, math.nan])))
    law = lognormal(0.3, 0.9)
    assert law.quantile(0.0) == 0.0
    assert law.quantile(1.0) == math.inf
    assert np.array_equal(law.quantile(np.array([0.0, 1.0])), [0.0, math.inf])


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_normal_quantile_refuses_outside_open_interval(p):
    with pytest.raises(ValueError):
        normal_quantile(p)


@pytest.mark.parametrize("fn", [ndtr, ndtri])
@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
def test_normal_pair_keeps_shape(fn, shape):
    arg = np.full(shape, 0.3)
    out = fn(arg)
    assert isinstance(out, np.ndarray)
    assert out.shape == shape
    assert out.dtype == np.float64


def test_scalar_calls_read_the_array_pair():
    assert normal_quantile(0.975) == float(ndtri(0.975))
    assert float(ndtr(-1.5)) == 0.5 * math.erfc(1.5 / math.sqrt(2.0))


@pytest.mark.parametrize("z", [-6.0, -8.0, -10.0])
def test_lognormal_cdf_lower_tail(z):
    mu, sigma = 0.2, 0.8
    x = math.exp(mu + sigma * z)
    # the reference reads z back from x, so only the CDF's own error counts
    z_at_x = (math.log(x) - mu) / sigma
    ref = 0.5 * math.erfc(-z_at_x / math.sqrt(2.0))
    assert float(lognormal(mu, sigma).cdf(x)) == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("s", [1e-12, 1e-18])
def test_lognormal_quantile_lower_tail(s):
    mu, sigma = 0.2, 0.8
    ref = math.exp(mu + sigma * INV_CDF(s))
    assert float(lognormal(mu, sigma).quantile(s)) == pytest.approx(ref, rel=1e-14, abs=0.0)
