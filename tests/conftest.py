from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from softrec.channel import ChannelModel, transmit
from softrec.constellation import demap, draw_symbols, map_decision_regions, pam
from softrec.harness import noise_variance_for_snr_db
from softrec.ldpc import load_code, syndrome
from softrec.metrics import lappr_batch
from softrec.softening import build_transform, soften


@pytest.fixture(scope="session")
def pam4():
    return pam(4)


@pytest.fixture(scope="session")
def bpsk():
    return pam(2)


@pytest.fixture(scope="session")
def ch4_0db(pam4):
    # Es = 5 for {-3,-1,1,3}; 0 dB under SNR = Es / (2 sigma^2) gives 2.5.
    return ChannelModel(pam4, 2.5)


@pytest.fixture(scope="session")
def ch2_0db(bpsk):
    return ChannelModel(bpsk, 0.5)


@pytest.fixture(scope="session")
def regions4(pam4):
    return map_decision_regions(pam4, 2.5)


@pytest.fixture(scope="session")
def t_base(ch4_0db):
    return build_transform(ch4_0db, "base")


@pytest.fixture(scope="session")
def t_alt(ch4_0db):
    return build_transform(ch4_0db, "alternating")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def frame_35db():
    """One rrs frame on the 64800-bit code, PAM-4 `alternating` at 3.5 dB:
    (code, transform, metrics, sent symbols, LAPPRs, target syndrome). The
    transform has made its first quantile solve, as in a running sweep."""
    c = pam(4)
    t = build_transform(ChannelModel(c, noise_variance_for_snr_db(3.5, c)), "alternating")
    code = load_code("dvbs2-r12-64800")
    rng = np.random.default_rng(35)
    x = draw_symbols(rng, c.priors, np.empty(code.n // 2, dtype=np.intp))
    n, i = soften(transmit(x, t.channel, rng), t)
    lapprs = lappr_batch(n, x, t).reshape(-1)
    return code, t, n, x, lapprs, syndrome(code, demap(i, c))


@pytest.fixture
def traced_peak():
    """A function that calls f() under tracemalloc and returns the peak of
    the memory it traced, in bytes."""

    def peak(f) -> int:
        tracemalloc.start()
        try:
            f()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
