"""Standard-normal CDF/quantile and the Kolmogorov asymptotic critical value.

One vectorised pair, in numpy and the stdlib only, serves the whole
package: `ndtr` is 0.5 * erfc(-z / sqrt 2), accurate to a few ulp in both
tails, and `ndtri` is Wichura's AS241 (PPND16), the rational approximation
behind `statistics.NormalDist.inv_cdf`, relative error about 1e-16 on
(1e-300, 1).  ndtri(0) = -inf and ndtri(1) = inf; arguments outside [0, 1]
give NaN.  The scalar `normal_cdf` and `normal_quantile` are thin calls of
the pair.  A bisection oracle is kept in the test suite.
"""
from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
_erfc = np.frompyfunc(math.erfc, 1, 1)

# The 0.99 quantile of the Kolmogorov distribution (the limit law of
# sqrt(n) times the one-sample KS statistic): the root of
# 1 - 2 sum_k (-1)^(k-1) exp(-2 k^2 x^2) = 0.99, found by bisecting the
# series; scipy.stats.kstwobign.ppf(0.99) agrees within 1e-15 relative.
KOLMOGOROV_CRITICAL_99 = 1.6276236115189495

# AS241 coefficients, highest power first: the central branch |p - 1/2| <=
# 0.425 in r = 0.180625 - (p - 1/2)^2, then the tail in r = sqrt(-log
# min(p, 1 - p)) shifted by 1.6 (r <= 5) or by 5 (far tail).
_CENTRAL_NUM = (2.5090809287301226727e+3, 3.3430575583588128105e+4,
                6.7265770927008700853e+4, 4.5921953931549871457e+4,
                1.3731693765509461125e+4, 1.9715909503065514427e+3,
                1.3314166789178437745e+2, 3.3871328727963666080e+0)
_CENTRAL_DEN = (5.2264952788528545610e+3, 2.8729085735721942674e+4,
                3.9307895800092710610e+4, 2.1213794301586595867e+4,
                5.3941960214247511077e+3, 6.8718700749205790830e+2,
                4.2313330701600911252e+1, 1.0)
_NEAR_NUM = (7.7454501427834140764e-4, 2.2723844989269184583e-2,
             2.4178072517745061177e-1, 1.2704582524523683826e+0,
             3.6478483247632046050e+0, 5.7694972214606914055e+0,
             4.6303378461565452959e+0, 1.4234371107496835773e+0)
_NEAR_DEN = (1.0507500716444168432e-9, 5.4759380849953449460e-4,
             1.5198666563616457197e-2, 1.4810397642748007459e-1,
             6.8976733498510000455e-1, 1.6763848301838038494e+0,
             2.0531916266377588219e+0, 1.0)
_FAR_NUM = (2.0103343992922881327e-7, 2.7115555687434875782e-5,
            1.2426609473880784386e-3, 2.6532189526576123093e-2,
            2.9656057182850489123e-1, 1.7848265399172913358e+0,
            5.4637849111641143699e+0, 6.6579046435011037772e+0)
_FAR_DEN = (2.0442631033899397856e-15, 1.4215117583164458887e-7,
            1.8463183175100546818e-5, 7.8686913114561329059e-4,
            1.4875361290850614853e-2, 1.3692988092273580531e-1,
            5.9983220655588793769e-1, 1.0)


def _ratio(num, den, x):
    """The polynomials num(x) and den(x) by Horner's rule, in place on arrays."""
    out = []
    for coeffs in (num, den):
        acc = x * coeffs[0]
        acc += coeffs[1]
        for c in coeffs[2:]:
            acc *= x
            acc += c
        out.append(acc)
    return out


def ndtr(z) -> np.ndarray:
    """Phi(z) elementwise, as an array of z's shape."""
    z = np.asarray(z, dtype=float)
    # frompyfunc hands back a Python float for a 0-d z; asarray keeps an array.
    out = np.asarray(_erfc(-z / _SQRT2), dtype=float)
    out *= 0.5
    return out


def ndtri(p) -> np.ndarray:
    """Phi^{-1}(p) elementwise by AS241, as an array of p's shape."""
    p = np.asarray(p, dtype=float)
    if p.ndim > 1:
        return ndtri(p.reshape(-1)).reshape(p.shape)
    q = p - 0.5
    num, den = _ratio(_CENTRAL_NUM, _CENTRAL_DEN, 0.180625 - q * q)
    x = np.asarray(q * num / den)
    tail = ~(np.abs(q) <= 0.425)
    if tail.any():
        # Positions, not the mask: a mask gather and scatter cost several
        # times more.  A 0-d p is used whole, as cheap numpy scalars.
        sub = np.flatnonzero(tail) if p.ndim else ()
        pt = p[sub]
        low = np.minimum(pt, 1.0 - pt)
        r = np.sqrt(-np.log(np.maximum(low, 5e-324)))
        num, den = _ratio(_NEAR_NUM, _NEAR_DEN, r - 1.6)
        far = r > 5.0
        if far.any():
            far_num, far_den = _ratio(_FAR_NUM, _FAR_DEN, r - 5.0)
            num, den = np.where(far, far_num, num), np.where(far, far_den, den)
        # min(p, 1 - p) = 0 is an infinite quantile; below 0 or NaN, none.
        xt = np.where(low > 0.0, num / den, np.where(low == 0.0, math.inf, math.nan))
        x[sub] = np.copysign(xt, q[sub])
    return x


def normal_cdf(x: float) -> float:
    """Phi(x), via erfc for accuracy in both tails."""
    return float(ndtr(x))


def normal_quantile(p: float) -> float:
    """Inverse of the standard-normal CDF on (0, 1).

    Raises ValueError outside the open unit interval.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal quantile argument must lie in (0, 1), got {p}")
    return float(ndtri(p))
