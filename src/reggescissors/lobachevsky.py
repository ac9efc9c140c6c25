"""Evaluation of the Lobachevsky function.

The Lobachevsky function is defined by the integral

    lob(theta) = -integral_0^theta log|2 sin u| du,

equivalently by the Fourier series (1/2) sum_{n>=1} sin(2 n theta) / n^2.
It is odd, pi-periodic, and attains its maximum at pi/6.  Two independent
evaluation routes are provided: a fast reduced power series (primary) and a
tanh-sinh (double-exponential) quadrature of the defining integral (oracle),
which integrates every piece between multiples of pi, a full period too,
instead of assuming that piece is zero.  The series uses ``math`` only,
so no value of it depends on numpy's CPU kernels.  It sums only the terms
that reach the last bit, takes one float at a time, and evaluates an array
element by element, so an array keeps its scalars' bits.  The quadrature
uses numpy: it integrates a whole array at once, one level loop per piece
count, and keeps the bits of each point integrated alone.  numpy is
imported only where an array is made (an array argument, the quadrature
and its tables), so a caller of the series on floats never loads it.
"""

from __future__ import annotations

import functools
import math

from .exceptions import QuadratureError

__all__ = [
    "LOBACHEVSKY_MAX_ARG",
    "lobachevsky",
    "lobachevsky_quadrature",
]

_PI = math.pi
_HALF_PI = _PI / 2
# bound at import for _lobachevsky_float, which reads them on every call
_MINUS_HALF_PI = -_HALF_PI
_log, _isfinite = math.log, math.isfinite

# Coefficients zeta(2m) / (m (2m+1)) of the reduced series.  Direct summation
# of the Fourier series converges like 1/N; splitting off the logarithmic
# singularity of the integrand sums the tail in closed form and leaves
#
#   lob(x) = x (1 - log 2x) + x * sum_{m>=1} c_m (x/pi)^(2m),   0 < x <= pi/2,
#
# whose terms decay at least like 4^-m.  48 terms reach full double precision.
# The table holds, in Horner order (m = 48 down to 1), bit for bit, the
# doubles that scipy.special.zeta(2m) / (m (2m+1)) gives
# (tests/test_lobachevsky.py checks it), so importing this module does not
# load scipy.
_SERIES_COEF_DESC = (
    0.0002147766323024055, 0.00022396416573348266, 0.0002337540906965872,
    0.0002442002442002442, 0.0002553626149131767, 0.0002673082063619353,
    0.00028011204481792715, 0.0002938583602703497, 0.00030864197530864197,
    0.0003245699448231094, 0.0003417634996582365, 0.00036036036036036037,
    0.000380517503805175, 0.00040241448692152917, 0.00042625745950554135,
    0.0004522840343735866, 0.0004807692307692308, 0.0005120327700972862,
    0.000546448087431694, 0.0005844535359438924, 0.0006265664160401002,
    0.0006734006734006734, 0.0007256894049346882, 0.0007843137254901968,
    0.0008503401360544248, 0.0009250693802035284, 0.0010101010101010676,
    0.0011074197120711266, 0.0012195121951230604, 0.0013495276653220486,
    0.0015015015015233512, 0.0016806722690053911, 0.001893939394380362,
    0.002150537636411457, 0.002463054196367818, 0.002849002891457421,
    0.0033333335320272967, 0.00395257011245258, 0.004761909304581114,
    0.0058479755397266965, 0.007353053546025064, 0.009524392839381512,
    0.012823667776324462, 0.018199901365960326, 0.027891037672165123,
    0.048444907713545204, 0.10823232337111381, 0.5483113556160755,
)

# (upper edge of q = (x/pi)^2, its last n coefficients in groups of four),
# from the bottom: most arguments of a formula op fall in the two lowest bands
_SERIES_BANDS = tuple(
    (edge, tuple(_SERIES_COEF_DESC[i:i + 4] for i in range(48 - n, 48, 4)))
    for edge, n in ((0.003, 8), (0.03, 12), (0.1, 20), (0.2, 28), (0.24, 36), (math.inf, 48))
)


def _compile_horner(bands):
    """h(q): the Horner sum of q's band, one function compiled once from bands.

    For each band from the bottom, its body has ``if q <= edge: return`` a
    straight-line chain ``(c0 * q + c1) * q + c2 ...`` with the band's
    coefficients written in as literals (``repr`` gives a float's exact bits
    back).  The chain starts from c0 because the loop ``h = h * q + c`` from
    h = 0.0 does: its first step, 0.0 * q + c0, is c0 exactly.
    """
    lines = ["def horner(q):"]
    for edge, quads in bands:
        coefs = sum(quads, ())
        chain = repr(coefs[0])
        for c in coefs[1:]:
            chain = f"({chain}) * q + {c!r}"
        lines.append(f"    if q <= {edge!r}: return {chain}" if edge < math.inf else f"    return {chain}")
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["horner"]


_horner = _compile_horner(_SERIES_BANDS)

#: Location of the global maximum of the Lobachevsky function.
LOBACHEVSKY_MAX_ARG = _PI / 6

# pi = _PI + _PI_LO to about 32 digits, so that the oracle measures distances
# to the true multiples of pi
_PI_LO = 1.2246467991473532e-16


@functools.cache
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

    Built on the first call and kept, so that importing this module does
    not load numpy.
    """
    import numpy as np

    levels = []
    for k in range(7):  # down to step 1/64
        h = 2.0 ** -k
        t = np.arange(-4.0, 4.0 + h, h) if k == 0 else np.arange(-4.0 + h, 4.0, 2 * h)
        s = _PI * np.sinh(t)
        x, xc = 1.0 / (1.0 + np.exp(-s)), 1.0 / (1.0 + np.exp(s))
        levels.append((x, xc, h * _PI * np.cosh(t) * x * xc))
    return tuple(levels)


def _lobachevsky_float(theta: float) -> float:
    """The series for one Python float: the one evaluator behind every call
    of ``lobachevsky``, arrays included.

    No value is memoized: a value is kept only on the TetAngles it was
    computed for (``tetra._memo``).  A formula op makes about 165 calls on
    114 distinct arguments; hashing every call costs about as much as
    evaluating the repeats again, so each call evaluates, and a timed or
    traced call measures its own work.

    The reduction into (-pi/2, pi/2] rounds half to even (``round``) and is
    kept apart from ``octahedron.wrap_angle``'s ``floor(x/p + 0.5)``: the two
    differ at exact half-period ties, so merging them would move bits.  It
    is skipped for |theta| < pi/2, where ``round`` gives 0 (a quotient that
    rounds to 0.5 rounds to even) and ``r`` would be theta exactly.  A zero
    ``r`` gives +0.0 whatever the sign of theta.  ``q`` stays
    ``(x / pi) ** 2``, which calls ``pow``: ``y * y`` differs from it by
    1 ulp at some points, so that simplification would move pinned bits.

    A band of ``q`` (``_SERIES_BANDS``, searched from the bottom) sets how
    many terms Horner keeps.  Each band is one straight-line chain
    (``_compile_horner``): the same operations in the same order as the
    single-step loop, without the loop's stepping and unpacking, so an
    evaluation on a formula op's arguments takes 16-21% less time than
    with a loop over groups of four.  At each band's upper edge the dropped
    leading terms sum to below 2**-20 of half an ulp of the result; lob
    vanishes at q = 1/4, so the top band keeps all 48.  The tests check this
    bound, the bits beside every band edge against the 48-step loop, and
    the chains against the loop over groups of four that they replace.
    """
    if _MINUS_HALF_PI < theta < _HALF_PI:
        r = theta
    elif _isfinite(theta):
        r = theta - _PI * round(theta / _PI)
        if r <= -_HALF_PI:
            r += _PI
    else:
        raise ValueError("lobachevsky: argument must be finite")
    x = abs(r)
    if x == 0.0:
        return 0.0
    q = (x / _PI) ** 2
    val = x * (1.0 - _log(2.0 * x)) + x * q * _horner(q)
    return val if r > 0 else -val


def lobachevsky(theta):
    """Evaluate the Lobachevsky function (absolute error below 1e-12).

    Accepts a float or an ndarray; returns the same shape.  A Python float
    goes straight to the series; only other input imports numpy.
    Non-finite input, or an array with any non-finite element, raises a
    plain ``ValueError``, which ``except GeometryDomainError`` does not
    catch.
    Any scalar (a Python float, a numpy scalar or a 0-d array) returns a
    float.  Every value, an array's elements too, comes from the one
    plain-float series (``_lobachevsky_float``), so an array holds exactly
    the bits of its scalars.
    """
    if type(theta) is float:
        return _lobachevsky_float(theta)
    import numpy as np

    arr = np.asarray(theta, dtype=float)
    if arr.ndim == 0:
        return _lobachevsky_float(float(arr))
    values = map(_lobachevsky_float, arr.ravel().tolist())
    return np.fromiter(values, float, arr.size).reshape(arr.shape)


def _sum_in_order(values) -> float:
    """0.0 plus each value in turn, as the builtin sum of floats up to Python 3.11
    (from 3.12 on it compensates the rounding, which moves the volumes' last bits)."""
    total = 0.0
    for v in values:
        total += v
    return total


def lobachevsky_quadrature(theta, tol: float = 1e-10):
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

    Accepts a float or an ndarray, as ``lobachevsky`` does: any scalar (a
    Python float, a numpy scalar or a 0-d array) returns a float, an array
    returns an array of its shape.  A scalar is a one-point array.  The
    points are grouped by their piece count, and each group runs one level
    loop on (points, pieces, nodes) arrays, dropping the points that have
    converged after each level.  Every value keeps the bits of a point
    integrated alone: the element-wise steps and the row sums over the
    nodes are a lone point's, and a point's pieces meet in a dot of the
    point's own length (a stacked matmul), because BLAS blocks a dot by
    its length, so padding the pieces to a common width would move bits.

    Raises ``QuadratureError`` if some point does not meet the requested
    tolerance, carrying as ``achieved`` the worst error estimate among the
    points that did not converge; ``ValueError`` for a tol outside
    (0, inf) or any non-finite argument.
    """
    import numpy as np

    th = np.asarray(theta, dtype=float)
    if not np.isfinite(th).all():
        raise ValueError("lobachevsky_quadrature: argument must be finite")
    if not 0 < tol < math.inf:
        raise ValueError("lobachevsky_quadrature: tol must be positive and finite")
    flat = th.ravel()
    sign = np.where(flat < 0, -1.0, 1.0)  # integrand is even, so the integral is odd
    mag = np.abs(flat)

    # n full pieces [k pi, (k+1) pi], then [n pi, mag] of length `last`, which
    # ends `gap` short of (n+1) pi; both are taken against the true pi
    n, rem = np.divmod(mag, _PI)  # rem = mag - n * _PI exactly
    last, gap = rem - n * _PI_LO, (_PI - rem) + (n + 1) * _PI_LO
    below = last < 0  # mag lies below n pi by less than n * _PI_LO
    n, last, gap = n - below, np.where(below, _PI + last, last), np.where(below, -last, gap)
    count = np.where(mag > 0, n + 1, 0).astype(int)  # 0 pieces: the integral is +0.0

    out, worst = np.zeros(flat.shape), []
    for c in sorted(set(count[count > 0].tolist())):  # np.unique would import numpy.ma
        idx = np.flatnonzero(count == c)
        pieces, gaps = np.full((idx.size, c), _PI), np.zeros((idx.size, c))
        pieces[:, -1], gaps[:, -1] = last[idx], gap[idx]
        total = scale = np.zeros(idx.size)
        for level, (x, xc, w) in enumerate(_tanh_sinh_levels()):
            # |sin u| is the sine of the distance from u to the nearer multiple of pi
            p = pieces[:, :, None]
            dist = p * x
            np.minimum(dist, gaps[:, :, None] + p * xc, out=dist)
            # w log(2 sin(dist)) in place, so a grid holds two (points, pieces,
            # nodes) arrays at a time; a distance of 0 keeps 2 sin(0) = 0
            terms = np.sin(dist)
            terms *= 2.0
            np.log(terms, out=terms, where=dist > 0)
            terms *= w
            # one dot per point, of the point's own length: BLAS blocks a dot
            # by its length, so padding to a common width would move bits
            previous, row = total, pieces[:, None, :]
            total = total / 2 - (row @ terms.sum(axis=2)[:, :, None])[:, 0, 0]
            scale = scale / 2 + (row @ np.abs(terms).sum(axis=2)[:, :, None])[:, 0, 0]
            err = np.maximum(abs(total - previous), 2.0**-52 * scale)
            if level:
                done = err <= tol / 2
                out[idx[done]] = total[done]
                idx, pieces, gaps, total, scale, err = (
                    a[~done] for a in (idx, pieces, gaps, total, scale, err))
                if not idx.size:
                    break
        worst.extend(err.tolist())
    if worst:
        err = max(worst)
        raise QuadratureError(
            f"lobachevsky_quadrature: achieved error {err:.3e} exceeds tol {tol:.3e}",
            achieved=err,
        )
    out *= sign
    return float(out[0]) if th.ndim == 0 else out.reshape(th.shape)
