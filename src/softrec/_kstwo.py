"""The exact tail P(D_n >= d) of the two-sided one-sample Kolmogorov-Smirnov
statistic, with the bits of ``scipy.stats.kstwo.sf``.

This is the survival path of scipy's ``scipy/stats/_ksstats.py``
(``_kolmogn`` with ``cdf=False``) and the support edges of
``rv_continuous.sf``. It keeps scipy's operation order and its
``np.longdouble`` rescaling by 2**128, on which the bits depend. It needs
only numpy and ``scipy.special``, which the package imports anyway;
importing ``scipy.stats`` for this one function cost an audit process about
46 MB and half a second. Simard & L'Ecuyer (2011) pick the method by n and
n*d**2:

- d <= 1/(2n) gives 1 and d >= 1 gives 0 (the support); n*d <= 1 and
  n*d >= n - 1 have Ruben-Gambino closed forms;
- d >= 0.5, or n*d**2 > 4 at n <= 140, or 2.2 <= n*d**2 < 370 at n > 140,
  takes 2 * smirnov(n, d); n*d**2 >= 370 at n > 140 gives 0;
- otherwise 1 - P(D_n <= d), from Pomeranz's recursion at n <= 140 and
  n*d**2 > 0.754693, from Durbin's matrix (the Marsaglia-Tsang-Wang form)
  at n <= 140 or at n <= 100000 with n*d**1.5 <= 1.4, and from the
  Pelz-Good series beyond.

References: Durbin, Ann. Math. Stat. 39 (1968); Pomeranz, Commun. ACM
17(12) (1974); Pelz & Good, J. R. Stat. Soc. B 38(2) (1976); Marsaglia,
Tsang & Wang, J. Stat. Softw. 8(18) (2003); Simard & L'Ecuyer, J. Stat.
Softw. 39(11) (2011).

The ported code carries scipy's licence:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions are met:
1. Redistributions of source code must retain the above copyright notice,
   this list of conditions and the following disclaimer.
2. Redistributions in binary form must reproduce the above copyright notice,
   this list of conditions and the following disclaimer in the documentation
   and/or other materials provided with the distribution.
3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived from this
   software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS IS"
AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO, THE
IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR PURPOSE
ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT OWNER OR CONTRIBUTORS BE
LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL, EXEMPLARY, OR
CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO, PROCUREMENT OF
SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR PROFITS; OR BUSINESS
INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF LIABILITY, WHETHER IN
CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING NEGLIGENCE OR OTHERWISE)
ARISING IN ANY WAY OUT OF THE USE OF THIS SOFTWARE, EVEN IF ADVISED OF THE
POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import numpy as np
from scipy.special import smirnov

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

# Stirling's series coefficients B_2j / (2j (2j - 1)), j = 8, ..., 1.
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def kstwo_sf(d: float, n: int) -> float:
    """P(D_n >= d) for a sample of n >= 1 points, equal to
    ``float(scipy.stats.kstwo.sf(d, n))``."""
    # A 0-d array, as scipy's nditer hands it over: numpy raises an array
    # and a scalar to a float power with different roundings.
    x = np.asarray(d, dtype=np.float64)
    t = n * x
    nxsquared = t * x
    if x >= 1.0:
        sf = 0.0
    elif x <= 0.5 / n or t <= 0.5:
        sf = 1.0
    elif t <= 1.0:  # Ruben-Gambino: 1/2n < x <= 1/n
        if n <= 140:
            sf = 1.0 - np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            sf = 1.0 - np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
    elif t >= n - 1:  # Ruben-Gambino
        sf = 2 * (1.0 - x) ** n
    elif x >= 0.5 or (n <= 140 and nxsquared > 4) or (n > 140 and 2.2 <= nxsquared < 370.0):
        sf = 2 * smirnov(n, x)  # exact at x >= 0.5, Miller's approximation below
    elif nxsquared >= 370.0:  # n > 140 here
        sf = 0.0
    elif n <= 140 and nxsquared > 0.754693:
        sf = 1.0 - _pomeranz(n, x)
    elif n <= 140 or (n <= 100000 and n * x**1.5 <= 1.4):
        sf = 1.0 - _durbin_mtw(n, x)
    else:
        sf = 1.0 - _pelz_good(n, x)
    return float(np.clip(sf, 0.0, 1.0))


def _log_nfactorial_div_n_pow_n(n):
    """log(n! / n**n) by Stirling's series, with n log n removed up front to
    avoid cancellation."""
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _durbin_mtw(n, d):
    """P(D_n <= d) from the k-th diagonal entry of (n!/n**n) H**n, with
    d = (k - h)/n and H the (2k - 1)-square matrix of Durbin (1968), powered
    by squaring as Marsaglia, Tsang & Wang (2003) do; 1/(2n) < d < 1."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])
    # v: first column and reversed last row, v[j] = (1 - h**(j+1)) / (j+1)!
    # but for v[-1]; w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h**intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])
    nn = n
    expnt = 0  # scaling of Hpwr, in powers of 2
    Hexpnt = 0  # scaling of H
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
    for i in range(1, n + 1):  # times n!/n**n
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return np.clip(p, 0.0, 1.0)


def _pomeranz_j1j2(i, n, ll, ceilf, roundf):
    """The first and last non-zero entries of row i of Pomeranz's table."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _pomeranz(n, x):
    """P(D_n <= x) by Pomeranz's (1974) recursion: 2n + 1 convolutions of a
    short row with near-Poisson weights, two rows kept, then times n!."""
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)
    g = min(f, 1.0 - f)
    ceilf = 1 if f > 0 else 0
    roundf = 1 if f > 0.5 else 0
    npwrs = 2 * (ll + 1)
    # (g/n)**m/m!, (2g/n)**m/m! and ((1-2g)/n)**m/m!: Poisson weights but
    # for their normalising factors
    gpower, twogpower, onem2gpower = np.ones((3, npwrs))
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g / n, 2 * g / n, (1 - 2 * g) / n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0, V1 = np.zeros((2, npwrs))
    V1[0] = 1
    V0s, V1s = 0, 0  # the row index each buffer starts at

    j1, j2 = _pomeranz_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = twogpower if i % 2 else onem2gpower
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1
            conv_len = j2 - j1 + 1
            V1[:conv_len] = conv[conv_start:conv_start + conv_len]
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    ans = V1[n - V1s]
    for m in range(1, n + 1):  # times n!
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return np.clip(ans, 0.0, 1.0)


def _pelz_good(n, x):
    """P(D_n <= x) by Pelz & Good (1976): the Li-Chien/Korolyuk expansion
    K0(z) + K1(z)/sqrt(n) + K2(z)/n + K3(z)/n**1.5 at z = sqrt(n) x, with
    each K put by Jacobi's theta identity into a form fit for small z."""
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

    # Horner's scheme over the odd m = 2k - 1 of sum_m c_m q**(m**2).
    K0to3 = np.zeros(4)
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

    # The terms over all integers k of K2, (pi k)**2 q**(k**2), and of K3,
    # (3 (pi k z)**2 - (pi k)**4) q**(k**2), summed directly.
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
