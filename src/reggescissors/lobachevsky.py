"""Evaluation of the Lobachevsky function.

The Lobachevsky function is defined by the integral

    lob(theta) = -integral_0^theta log|2 sin u| du,

equivalently by the Fourier series (1/2) sum_{n>=1} sin(2 n theta) / n^2.
It is odd, pi-periodic, and attains its maximum at pi/6.  Two independent
evaluation routes are provided: a fast reduced power series (primary) and a
tanh-sinh (double-exponential) quadrature of the defining integral (oracle),
which integrates every piece between multiples of pi, a full period too,
instead of assuming that piece is zero.  Both use numpy only.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .exceptions import QuadratureError

__all__ = [
    "LOBACHEVSKY_MAX_ARG",
    "lobachevsky",
    "lobachevsky_quadrature",
]

_PI = math.pi

# Coefficients zeta(2m) / (m (2m+1)) of the reduced series.  Direct summation
# of the Fourier series converges like 1/N; splitting off the logarithmic
# singularity of the integrand sums the tail in closed form and leaves
#
#   lob(x) = x (1 - log 2x) + x * sum_{m>=1} c_m (x/pi)^(2m),   0 < x <= pi/2,
#
# whose terms decay at least like 4^-m.  48 terms reach full double precision.
# The table holds, bit for bit, the doubles that scipy.special.zeta(2m) /
# (m (2m+1)) gives for m = 1..48 (tests/test_lobachevsky.py checks it), so
# importing this module does not load scipy.
_SERIES_COEF = np.array([
    0.5483113556160755, 0.10823232337111381, 0.048444907713545204,
    0.027891037672165123, 0.018199901365960326, 0.012823667776324462,
    0.009524392839381512, 0.007353053546025064, 0.0058479755397266965,
    0.004761909304581114, 0.00395257011245258, 0.0033333335320272967,
    0.002849002891457421, 0.002463054196367818, 0.002150537636411457,
    0.001893939394380362, 0.0016806722690053911, 0.0015015015015233512,
    0.0013495276653220486, 0.0012195121951230604, 0.0011074197120711266,
    0.0010101010101010676, 0.0009250693802035284, 0.0008503401360544248,
    0.0007843137254901968, 0.0007256894049346882, 0.0006734006734006734,
    0.0006265664160401002, 0.0005844535359438924, 0.000546448087431694,
    0.0005120327700972862, 0.0004807692307692308, 0.0004522840343735866,
    0.00042625745950554135, 0.00040241448692152917, 0.000380517503805175,
    0.00036036036036036037, 0.0003417634996582365, 0.0003245699448231094,
    0.00030864197530864197, 0.0002938583602703497, 0.00028011204481792715,
    0.0002673082063619353, 0.0002553626149131767, 0.0002442002442002442,
    0.0002337540906965872, 0.00022396416573348266, 0.0002147766323024055,
])
# Horner order, as Python floats for the scalar path
_SERIES_COEF_DESC = tuple(_SERIES_COEF[::-1].tolist())

#: Location of the global maximum of the Lobachevsky function.
LOBACHEVSKY_MAX_ARG = _PI / 6

# pi = _PI + _PI_LO to about 32 digits, so that the oracle measures distances
# to the true multiples of pi
_PI_LO = 1.2246467991473532e-16


def _tanh_sinh_levels() -> tuple:
    """Node and weight tables of the tanh-sinh rule of Takahasi and Mori
    ("Double exponential formulas for numerical integration", Publ. RIMS 9,
    1974) on [0, 1].

    The node x(t) = 1 / (1 + exp(-pi sinh t)) has weight
    x'(t) = pi cosh(t) x (1 - x); t runs over the multiples of the step
    h = 2**-k in [-4, 4], where the weights fall below 1e-35.  Level k holds
    only the nodes new at step 2**-k (all of them at k = 0), with h folded
    into the weights, so the sum at level k is half the sum at level k - 1
    plus the sum over level k's own nodes.  Each node comes with its
    complement 1 - x, computed as 1 / (1 + exp(pi sinh t)) and not by
    subtraction, so a distance to the right endpoint keeps its relative
    accuracy however close the node is to it.
    """
    levels = []
    for k in range(7):  # down to step 1/64
        h = 2.0 ** -k
        t = np.arange(-4.0, 4.0 + h, h) if k == 0 else np.arange(-4.0 + h, 4.0, 2 * h)
        s = _PI * np.sinh(t)
        x, xc = 1.0 / (1.0 + np.exp(-s)), 1.0 / (1.0 + np.exp(s))
        levels.append((x, xc, h * _PI * np.cosh(t) * x * xc))
    return tuple(levels)


_TANH_SINH = _tanh_sinh_levels()


def _reduce_mod_pi(theta: np.ndarray) -> np.ndarray:
    """Map arguments into (-pi/2, pi/2] using pi-periodicity."""
    r = theta - _PI * np.round(theta / _PI)
    return np.where(r <= -_PI / 2, r + _PI, r)


@functools.lru_cache(maxsize=4096)
def _lobachevsky_float(theta: float) -> float:
    """The series for one Python float, bit-identical to the array route
    applied to a 0-d array.

    A bounded memo keyed on the exact argument keeps every bit (only 0.0
    and -0.0 share a key, and both give +0.0) and pays because the formulas
    of one tetrahedron repeat their angle expressions: one formula op makes
    about 450 calls on 270 distinct arguments.  Errors are not kept.

    Every step repeats the array route's IEEE operations on plain floats:
    ``round`` rounds half to even like ``np.round``, and a zero ``r`` gives
    +0.0 there whatever the sign of theta.  Two steps must not be
    simplified.  ``q`` stays ``(x / pi) ** 2``, because ``pow`` is what a
    0-d ``**`` calls, while ``y * y`` differs from it by 1 ulp at some
    points.  The logarithm comes from ``np.log``, because ``math.log``
    differs from numpy's in about 0.2% of arguments.
    """
    if not math.isfinite(theta):
        raise ValueError("lobachevsky: argument must be finite")
    r = theta - _PI * round(theta / _PI)
    if r <= -_PI / 2:
        r += _PI
    x = abs(r)
    if x == 0.0:
        return 0.0
    q = (x / _PI) ** 2
    h = 0.0
    for c in _SERIES_COEF_DESC:
        h = h * q + c
    val = x * (1.0 - float(np.log(2.0 * x))) + x * q * h
    return val if r > 0 else -val


def lobachevsky(theta):
    """Evaluate the Lobachevsky function (absolute error below 1e-12).

    Accepts a float or an ndarray; returns the same shape.  Non-finite
    input raises a plain ``ValueError``, which ``except GeometryDomainError``
    does not catch.  Any scalar (a Python float, a numpy scalar or a 0-d
    array) takes the plain-float series path and returns a float, through
    a bounded memo keyed on the exact argument that keeps every bit (see
    ``_lobachevsky_float``); arrays
    take the array route, whose vectorized arithmetic rounds differently
    at a few points in 10**5 (16 of the 10**5 seeded test points), by at
    most 2**-54 in absolute terms so far.  Near a zero of lob that is up
    to 32 ulps of the result, not only its last bit.
    """
    if type(theta) is float:
        return _lobachevsky_float(theta)
    arr = np.asarray(theta, dtype=float)
    if arr.ndim == 0:
        return _lobachevsky_float(float(arr))
    if not np.all(np.isfinite(arr)):
        raise ValueError("lobachevsky: argument must be finite")
    r = _reduce_mod_pi(arr)
    x = np.abs(r)
    q = (x / _PI) ** 2
    h = np.zeros_like(q)
    for c in _SERIES_COEF[::-1]:
        h = h * q + c
    with np.errstate(divide="ignore", invalid="ignore"):
        val = x * (1.0 - np.log(2.0 * x)) + x * q * h
    return np.sign(r) * np.where(x > 0, val, 0.0)


def lobachevsky_quadrature(theta: float, tol: float = 1e-10) -> float:
    """Evaluate the defining integral directly by tanh-sinh quadrature.

    Serves as the oracle for ``lobachevsky``: no periodicity or oddness
    reduction beyond the sign of the integration range is applied.
    [0, |theta|] is split at each multiple of pi and every piece is
    integrated, a full period too, so a request for theta = 10 really
    integrates across three logarithmic singularities of log|2 sin u|.
    The tanh-sinh rule of Takahasi and Mori clusters its nodes double
    exponentially at both ends of each piece, where it measures every
    node's distance to the nearer multiple of pi from the node or its
    complement, so |sin u| keeps its relative accuracy beside the
    singularities.  Nested levels halve the step until two levels differ by
    at most tol/2, a difference never taken below the rounding bound of the
    sum.  A node whose distance underflows to 0 (subnormal theta) adds
    nothing.

    Raises ``QuadratureError`` (carrying the achieved error estimate) if
    the requested tolerance is not met, ``ValueError`` for a tol outside
    (0, inf) or a non-finite argument.
    """
    th = float(theta)
    if not math.isfinite(th):
        raise ValueError("lobachevsky_quadrature: argument must be finite")
    if not 0 < tol < math.inf:
        raise ValueError("lobachevsky_quadrature: tol must be positive and finite")
    sign = 1.0
    if th < 0:  # integrand is even, so the integral is odd
        sign, th = -1.0, -th
    if th == 0.0:
        return 0.0

    # n full pieces [k pi, (k+1) pi], then [n pi, th] of length `last`, which
    # ends `gap` short of (n+1) pi; both are taken against the true pi
    n, rem = divmod(th, _PI)  # rem = th - n * _PI exactly
    n = int(n)
    last, gap = rem - n * _PI_LO, (_PI - rem) + (n + 1) * _PI_LO
    if last < 0:  # th lies below n pi by less than n * _PI_LO
        n, last, gap = n - 1, _PI + last, -last
    pieces, gaps = np.full(n + 1, _PI), np.zeros(n + 1)
    pieces[-1], gaps[-1] = last, gap

    total = scale = 0.0
    for level, (x, xc, w) in enumerate(_TANH_SINH):
        # |sin u| is the sine of the distance from u to the nearer multiple of pi
        dist = np.minimum(pieces[:, None] * x, gaps[:, None] + pieces[:, None] * xc)
        terms = w * np.log(2.0 * np.sin(dist), out=np.zeros_like(dist), where=dist > 0)
        previous = total
        total = total / 2 - float(pieces @ terms.sum(axis=1))
        scale = scale / 2 + float(pieces @ np.abs(terms).sum(axis=1))
        err = max(abs(total - previous), 2.0**-52 * scale)
        if level and err <= tol / 2:
            return sign * total
    raise QuadratureError(
        f"lobachevsky_quadrature: achieved error {err:.3e} exceeds tol {tol:.3e}",
        achieved=err,
    )
