"""Null laws of the two-sample tests in `uqd.ensemble`, in numpy and the
standard library.

* ``ks_two_sample_sf(n, h)``: Hodges' exact law of the two-sample
  Kolmogorov-Smirnov statistic for two samples of ``n`` (Ark. Mat. 3, 469,
  1958), ``Pr(D_{n,n} >= h / n)``, as an alternating sum evaluated by a
  Horner-like recursion in ``O(n)`` operations.
* ``kolmogorov_sf(n, x)``: the one-sample Kolmogorov law ``Pr(D_n >= x)``,
  which scipy's ``ks_2samp(method="exact")`` takes at ``n = round(N / 2)``
  when the recursion rounds outside ``[0, 1]``.  Only the branches that
  fallback reaches are here: ``D_{N,N}`` leaves the exact recursion only
  where its p-value is within rounding of 1, so ``n x^2`` is small.  They
  are Ruben-Gambino for ``n x <= 1``, the matrix method of Durbin (1968) in
  the form of Marsaglia, Tsang & Wang (J. Stat. Softw. 8(18), 2003), and
  the Pelz-Good expansion (J. R. Stat. Soc. B 38, 152, 1976), chosen by the
  rules of Simard & L'Ecuyer (J. Stat. Softw. 39(11), 2011).
* ``chi2_sf(x, df)``: the chi-square upper tail at integer degrees of
  freedom, a finite sum of positive terms.

The two Kolmogorov-Smirnov laws repeat scipy's own evaluation operation
for operation, so their values are scipy's to the bit: its
``_compute_prob_outside_square`` in ``stats/_stats_py.py`` and its
``stats/_ksstats.py`` (BSD-3-Clause, Copyright (c) 2001-2002 Enthought,
Inc. and 2003-2024 SciPy Developers).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi**2
_PI_FOUR = np.pi**4
_PI_SIX = np.pi**6

# B_2j / (2j (2j - 1)) for j = 8, ..., 1, B_m the Bernoulli numbers
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]

# Largest n x^2 on the ported branches: Durbin's matrix below it for
# n <= 140, Pomeranz's recursion (not ported) above it.
_DURBIN_MAX_NX2 = 0.754693
# For n > 140 the tail switches to Smirnov's series (not ported) here.
_SMIRNOV_MIN_NX2 = 2.2

_ERFCX_MIN = 6.0  # erfc(sqrt(a)) as exp(-a) * erfcx(sqrt(a)) from a = 6 up
_ERFCX_TERMS = 60
_DIRECT_MAX = 1400.0  # below it exp(-a / 2) is a normal double


def ks_two_sample_sf(n: int, h: int) -> float:
    """``Pr(D_{n,n} >= h / n)`` for two samples of ``n``, ``1 <= h <= n``.

    ``2 (A_1 - A_2 + A_3 - ...)`` with ``A_k = C(2n, n - kh) / C(2n, n)``
    cancels, so each term is divided by the one before it and the sum is
    evaluated as ``2 B_1 (1 - B_2 (1 - B_3 (1 - ...)))``; each ratio ``B_k``
    is a product of ``h`` factors below 1.  Rounding can leave the result
    slightly outside ``[0, 1]`` where it is near 1.
    """
    p = 0.0
    for k in range(n // h, -1, -1):
        p1 = 1.0
        for j in range(h):
            p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
        p = p1 * (1.0 - p)
    return 2 * p


def _log_nfactorial_div_n_pow_n(n: int):
    """``log(n! / n^n)`` by Stirling's series, ``n log n`` removed first."""
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _kolmogorov_cdf_durbin(n: int, d):
    """``Pr(D_n <= d)`` for ``1 / n < d < 1``: entry ``(k, k)`` of
    ``(n! / n^n) H^n``, ``H`` of side ``2k - 1`` for ``d = (k - h) / n``,
    with the powers rescaled by ``2^128`` as they grow."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])
    # first column v[j] = (1 - h^(j+1)) / (j+1)! (last entry corrected),
    # w[j] = 1 / j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h**intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0)**m - 2 * h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])
    nn = n
    expnt = 0  # scale of Hpwr
    Hexpnt = 0  # scale of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):  # times n! / n^n
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return np.clip(p, 0.0, 1.0)


def _kolmogorov_cdf_pelz_good(n: int, x):
    """``Pr(D_n <= x)`` for ``0 < x < 1`` by the Pelz-Good expansion
    ``K0(z) + K1(z) / sqrt(n) + K2(z) / n + K3(z) / n^1.5``, ``z = x sqrt(n)``,
    each ``K`` transformed by Jacobi's theta identity for small ``z``."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z below about 0.0417
        return 0.0
    q = np.exp(qlog)

    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # Horner's scheme for sum c_i q^(i^2) over the odd i
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the terms over all k of K2 and K3, summed directly
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks**2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q**ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)


def kolmogorov_sf(n: int, x: float) -> float:
    """``Pr(D_n >= x)`` for the one-sample Kolmogorov statistic ``D_n``,
    as scipy's ``kstwo.sf(x, n)``, on the branches where ``n x^2`` is
    small; elsewhere a `NumericalError` names the branch that is missing."""
    x = np.float64(x)
    if x <= 0.5 / n:  # at or below the support
        return 1.0
    if x >= 1.0:
        return 0.0
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: Pr(D_n <= x) = n! / n^n (2t - 1)^n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
        return float(np.clip(1.0 - prob, 0.0, 1.0))
    nxsquared = t * x
    if t >= n - 1 or x >= 0.5 or (
        nxsquared > _DURBIN_MAX_NX2 if n <= 140 else nxsquared >= _SMIRNOV_MIN_NX2
    ):
        raise NumericalError(
            f"Kolmogorov tail at n = {n}, x = {float(x)} needs a branch that is not ported"
        )
    if n <= 140 or (n <= 100000 and n * x**1.5 <= 1.4):
        cdfprob = _kolmogorov_cdf_durbin(n, x)
    else:
        cdfprob = _kolmogorov_cdf_pelz_good(n, x)
    return float(np.clip(1.0 - cdfprob, 0.0, 1.0))


def _erfcx(y: float) -> float:
    """``exp(y^2) erfc(y)`` for ``y >= sqrt(_ERFCX_MIN)``, by the continued
    fraction ``1 / (y + (1/2) / (y + 1 / (y + (3/2) / (y + ...)))) / sqrt(pi)``
    evaluated from a fixed depth."""
    tail = 0.0
    for k in range(_ERFCX_TERMS, 0, -1):
        tail = (k / 2) / (y + tail)
    return 1.0 / (y + tail) / math.sqrt(math.pi)


def chi2_sf(x: float, df: int) -> float:
    """``Pr(X >= x)`` for a chi-square variable ``X`` of integer ``df >= 1``.

    With ``a = x / 2``, the tail is ``exp(-a) sum_{j < df/2} a^j / j!`` for
    even ``df`` and ``erfc(sqrt(a)) + exp(-a) sum_{j < (df-1)/2}
    a^(j+1/2) / Gamma(j + 3/2)`` for odd ``df``.  Every term is positive.
    The terms grow by ratios and ``exp(-a)`` is applied last, as two
    factors ``exp(-a/2)``, so that it does not underflow before the sum
    lifts it.  From ``a = 6`` up, ``erfc(sqrt(a))`` is taken as ``exp(-a)
    erfcx(sqrt(a))``: the relative error of ``erfc`` grows with ``a``, that
    of ``erfcx`` does not.  Past ``a = 1400``, or where the sum overflows,
    each term is one ``exp`` of its logarithm instead, good to about
    ``a`` units in the last place.
    """
    a = 0.5 * x
    if a <= 0.0:
        return 1.0
    if a == math.inf:
        return 0.0
    odd = df % 2
    root = math.sqrt(a)
    big = odd and a >= _ERFCX_MIN
    total = _erfcx(root) if big else 0.0
    offset = 1.5 if odd else 1.0  # term j is a^(j + offset - 1) / Gamma(j + offset)
    if a < _DIRECT_MAX:
        term = 2.0 * root / math.sqrt(math.pi) if odd else 1.0
        for j in range(df // 2):
            total += term
            term *= a / (j + offset)
        if math.isfinite(total):
            half = math.exp(-0.5 * a)
            return (math.erfc(root) if odd and not big else 0.0) + total * half * half
    log_a = math.log(a)
    total = math.exp(-a) * _erfcx(root) if odd else 0.0
    for j in range(df // 2):
        total += math.exp((j + offset - 1) * log_a - math.lgamma(j + offset) - a)
    return total
