"""Two earlier decoders, kept as test oracles.

``decode`` is the flooding schedule as it was before the layered one: every
check node updates, then every variable node, on check-major edge arrays
plus the variable-major view of the same edges, which the code object no
longer carries and ``_variable_view`` rebuilds. ``layered_decode`` is the
layered schedule at L scale, which ``softrec.ldpc.decode`` must match bit
for bit.
"""

from __future__ import annotations

import numpy as np

from softrec.ldpc import _MAG_FLOOR, _SIGN_BIT, _TANH_CLIP, DecodeOutcome, LdpcCode, syndrome


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


def layered_decode(code: LdpcCode, lapprs, target, max_iters: int = 100) -> DecodeOutcome:
    """The layered sum-product decoder at L scale, as ``softrec.ldpc.decode``
    ran it before P and c2v were kept as L/2 and the syndrome test was
    probed on the first layer: tanh of 0.5 * v2c, c2v = 2 * arctanh, the
    magnitude clamp as a maximum and a minimum, and the full syndrome test
    after every sweep."""
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

    bits = (lam < 0).astype(np.uint8)
    if np.array_equal(syndrome(code, bits), tgt):
        return DecodeOutcome(bits=bits, converged=True, iterations_used=0)

    # Per layer: its edge slice, the variables of those edges, each check's
    # first edge and degree within the slice, and the target syndrome bit
    # of each check in the sign-bit position, folded into its sign parity.
    deg = np.diff(code.chk_ptr)[code.layer_chk]
    edge_ptr = np.concatenate(([0], np.cumsum(deg)))
    syn = tgt.astype(np.uint64)[code.layer_chk] << np.uint64(63)
    layers = []
    for c0, c1 in zip(code.layer_ptr[:-1], code.layer_ptr[1:]):
        e0, e1 = edge_ptr[c0], edge_ptr[c1]
        layers.append((
            slice(e0, e1), code.layer_var[e0:e1], edge_ptr[c0:c1] - e0, deg[c0:c1], syn[c0:c1],
        ))

    # Edge buffers, allocated once; a layer works on its slice of each.
    post = lam.copy()
    c2v = np.zeros(code.edge_count)
    v2c = np.empty(code.edge_count)
    sign = np.empty(code.edge_count, dtype=np.uint64)
    for it in range(1, max_iters + 1):
        for sl, var, first, d, s in layers:
            # The layer's old c2v is read once, then its slice holds the
            # check update as it is built.
            x, t, sb = v2c[sl], c2v[sl], sign[sl]
            tb = t.view(np.uint64)
            np.take(post, var, out=x, mode="clip")  # unbuffered; var is in range
            np.subtract(x, t, out=x)
            np.multiply(x, 0.5, out=t)
            np.tanh(t, out=t)
            # Signs travel as IEEE sign bits: split them off here, so the
            # leave-one-out sign of an edge is the XOR of its check's sign
            # bits, its own and the check's syndrome bit.
            np.bitwise_and(tb, _SIGN_BIT, out=sb)
            np.bitwise_xor(tb, sb, out=tb)
            np.maximum(t, _MAG_FLOOR, out=t)
            np.minimum(t, _TANH_CLIP, out=t)
            np.log(t, out=t)
            # Leave-one-out products per check, split into magnitude and sign.
            sum_l = np.add.reduceat(t, first)
            par = np.bitwise_xor.reduceat(sb, first)
            par ^= s
            np.subtract(np.repeat(sum_l, d), t, out=t)
            np.exp(t, out=t)
            np.minimum(t, _TANH_CLIP, out=t)
            np.arctanh(t, out=t)
            t *= 2.0
            np.bitwise_xor(sb, np.repeat(par, d), out=sb)
            np.bitwise_xor(tb, sb, out=tb)
            np.add(x, t, out=x)
            post[var] = x

        bits = (post < 0).astype(np.uint8)
        if np.array_equal(syndrome(code, bits), tgt):
            return DecodeOutcome(bits=bits, converged=True, iterations_used=it)

    return DecodeOutcome(bits=bits, converged=False, iterations_used=max_iters)
