"""The audit's KS tail against the scipy.stats.kstwo.sf it was ported from."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstwo

from softrec._kstwo import kstwo_sf


@st.composite
def _sizes_and_stats(draw):
    n = draw(st.integers(1, 20_000))
    lo = 0.5 / n
    # plain floats in [1/(2n), 1] favour large d; a log-uniform d reaches
    # the small-d methods as often
    d = draw(st.floats(lo, 1.0) | st.floats(0.0, 1.0).map(lambda u: lo**u))
    return n, d


@settings(max_examples=300, deadline=None)
@given(_sizes_and_stats())
def test_matches_kstwo(case):
    n, d = case
    assert kstwo_sf(d, n) == float(kstwo.sf(d, n))


def _straddle(n, guess, f, c):
    """The adjacent floats lo < hi with f(lo) <= c < f(hi), searched from
    ``guess``; f rounds as the tail's own branch test does."""
    d = np.float64(guess)
    while f(d) > c:
        d = np.nextafter(d, 0.0)
    while f(np.nextafter(d, np.inf)) <= c:
        d = np.nextafter(d, np.inf)
    return [float(d), float(np.nextafter(d, np.inf))]


def _edges(n):
    """d on both sides of every threshold the tail branches on at size n."""
    out = _straddle(n, 0.5 / n, lambda d: d, 0.5 / n)  # the support's lower edge
    out += [float(np.nextafter(1.0, 0.0)), 1.0]  # and its upper edge
    out += _straddle(n, 1.0 / n, lambda d: n * np.asarray(d), 1.0)  # Ruben-Gambino
    if n > 2:
        out += _straddle(n, (n - 1.0) / n, lambda d: n * np.asarray(d), n - 1.0)
    out += _straddle(n, 0.5, lambda d: d, 0.5)  # 2 * smirnov from here on
    for c in (0.754693, 4.0, 2.2, 18.0, 370.0):
        out += _straddle(n, np.sqrt(c / n), lambda d: n * np.asarray(d) * np.asarray(d), c)
    out += _straddle(n, (1.4 / n) ** (2 / 3), lambda d: n * np.asarray(d) ** 1.5, 1.4)
    return [(n, d) for d in out if d <= 1.0]


@pytest.mark.parametrize(
    "n, d",
    [case for n in (1, 2, 3, 10, 139, 140, 141, 1_000, 100_000, 100_001) for case in _edges(n)]
    # the sizes of the audit's 10 dB cells, on both sides of n d**2 = 2.2
    + [(130_062, 0.004), (130_062, 0.00423)]
    # d where numpy rounds d**1.5 to opposite sides of 1.4 / n for a scalar
    # d and for the 0-d array that scipy computes with
    + [(155, 0.043370812512879386), (218, 0.03454997159956182)],
)
def test_matches_kstwo_at_branch_edges(n, d):
    assert kstwo_sf(d, n) == float(kstwo.sf(d, n))
