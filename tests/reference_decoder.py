"""The flooding-schedule decoder as it was before the layered schedule,
kept as a test oracle.

Every check node updates, then every variable node, on check-major edge
arrays plus the variable-major view of the same edges, which the code
object no longer carries and ``_variable_view`` rebuilds.
"""

from __future__ import annotations

import numpy as np

from softrec.ldpc import _MAG_FLOOR, _TANH_CLIP, DecodeOutcome, LdpcCode, syndrome


def _variable_view(code: LdpcCode):
    """(edge_chk, var_ptr, var_edge): each edge's check, and the edges by variable."""
    edge_chk = np.repeat(np.arange(code.m, dtype=np.int64), np.diff(code.chk_ptr))
    col_deg = np.bincount(code.chk_var, minlength=code.n)
    var_edge = np.argsort(code.chk_var, kind="stable").astype(np.int64)
    var_ptr = np.concatenate(([0], np.cumsum(col_deg))).astype(np.int64)
    return edge_chk, var_ptr, var_edge


def decode(code: LdpcCode, lapprs, target, max_iters: int = 100) -> DecodeOutcome:
    """Syndrome-aware sum-product decoding toward a target coset.

    Flooding schedule: every check node updates, then every variable node;
    the running hard decision is tested against the target syndrome before
    the first sweep and after each one, stopping early on a match. Check
    updates use the numerically safe tanh/atanh form with the product
    magnitude clamped to 1 - 1e-12; a check whose target syndrome bit is 1
    negates its outgoing messages.
    """
    lam = np.asarray(lapprs, dtype=float)
    if lam.shape != (code.n,):
        raise ValueError(f"expected {code.n} soft inputs, got shape {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise ValueError("soft inputs must be finite")
    tgt = np.asarray(target, dtype=np.uint8)
    if tgt.shape != (code.m,):
        raise ValueError(f"expected {code.m} syndrome bits, got shape {tgt.shape}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    edge_chk, var_ptr, var_edge = _variable_view(code)

    bits = (lam < 0).astype(np.uint8)
    if np.array_equal(syndrome(code, bits), tgt):
        return DecodeOutcome(bits=bits, converged=True, iterations_used=0)

    # The target syndrome bit of each check, folded into its sign parity.
    syn = tgt.astype(bool)
    v2c = lam[code.chk_var]
    ptr = code.chk_ptr[:-1]

    for it in range(1, max_iters + 1):
        t = np.tanh(0.5 * v2c)
        neg = t < 0
        mag = np.abs(t)
        np.maximum(mag, _MAG_FLOOR, out=mag)
        np.minimum(mag, _TANH_CLIP, out=mag)
        lmag = np.log(mag)
        # Leave-one-out products per check, split into magnitude and sign.
        sum_l = np.add.reduceat(lmag, ptr)
        par = np.bitwise_xor.reduceat(neg, ptr)
        par ^= syn
        excl_l = sum_l[edge_chk] - lmag
        excl_neg = par[edge_chk] ^ neg
        prod = np.exp(excl_l)
        np.minimum(prod, _TANH_CLIP, out=prod)
        c2v = 2.0 * np.arctanh(prod)
        np.negative(c2v, out=c2v, where=excl_neg)

        acc = np.add.reduceat(c2v[var_edge], var_ptr[:-1])
        total = lam + acc
        v2c = total[code.chk_var] - c2v

        bits = (total < 0).astype(np.uint8)
        if np.array_equal(syndrome(code, bits), tgt):
            return DecodeOutcome(bits=bits, converged=True, iterations_used=it)

    return DecodeOutcome(bits=bits, converged=False, iterations_used=max_iters)
