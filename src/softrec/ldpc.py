"""Binary LDPC codes and syndrome-aware belief propagation.

The decoder solves the coset problem of reconciliation: given soft inputs
for the other party's bit string and the syndrome of that string under an
agreed parity-check matrix, find the most plausible member of the matching
coset. Check nodes absorb the target syndrome directly: a check whose
syndrome bit is 1 flips the sign of its outgoing messages, which is
algebraically identical to decoding the all-zero-syndrome problem on
sign-translated inputs (the tests pin that equivalence down bit for bit).
It runs a layered sum-product schedule (Hocevar, SiPS 2004) over layers of
checks that share no variable; every code colours its checks into such
layers once, when it is built.

Codes load from alist text (MacKay layout, 1-indexed adjacency) or from two
built-in presets:

* ``hamming74``: the 3x7 single-error-correcting fixture.
* ``dvbs2-r12-64800``: a rate-1/2, n=64800 staircase (IRA) code with the
  broadcast-standard structural profile: q=90, 360-bit info groups, 36
  degree-8 and 54 degree-3 group rows, uniform check degree 7, accumulator
  parity chain. The group address table was drawn once from a fixed seed
  under 4-cycle-free and row-balance constraints and is stored as a
  literal, so the preset is identical on every install;
  ``build_staircase_code`` accepts any explicit address table with the
  same rule.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

__all__ = [
    "LdpcCode",
    "DecodeOutcome",
    "load_code",
    "parse_alist",
    "to_alist",
    "hamming74",
    "dvbs2_r12",
    "build_staircase_code",
    "syndrome",
    "decode",
    "PRESETS",
]

# Message-domain clamps for the tanh/atanh sum-product update.
_TANH_CLIP = 1.0 - 1e-12
_MAG_FLOOR = 1e-300
_SIGN_BIT = np.uint64(1 << 63)


@dataclass(frozen=True)
class LdpcCode:
    """Sparse parity-check structure in check-major edge arrays.

    Attributes
    ----------
    n : int
        Blocklength (number of variable nodes / columns).
    m : int
        Number of checks (rows).
    chk_ptr : ndarray, shape (m+1,)
        Row-compressed offsets into ``chk_var``.
    chk_var : ndarray, shape (E,)
        Variable index of each edge, grouped by check, strictly ascending
        inside each check, so no check names a variable twice.

    The decoder's layers are derived once, when the code is built, by a
    greedy colouring of the checks in a fixed hash priority (see
    ``_colour_checks``): ``layer_chk`` lists the checks layer by layer,
    each layer in ascending check order, ``layer_ptr`` holds each layer's
    offsets into it, and ``layer_var`` holds the edges' variables in that
    check order, so each layer's edges are one contiguous slice.
    """

    n: int
    m: int
    chk_ptr: np.ndarray
    chk_var: np.ndarray
    layer_chk: np.ndarray = field(init=False, repr=False)
    layer_ptr: np.ndarray = field(init=False, repr=False)
    layer_var: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        chk_ptr = np.asarray(self.chk_ptr, dtype=np.int64)
        chk_var = np.asarray(self.chk_var, dtype=np.int64)
        object.__setattr__(self, "chk_ptr", chk_ptr)
        object.__setattr__(self, "chk_var", chk_var)
        if self.n < 1 or self.m < 1:
            raise ValueError("code must have at least one variable and one check")
        if chk_ptr.shape != (self.m + 1,) or chk_ptr[0] != 0 or chk_ptr[-1] != chk_var.size:
            raise ValueError("chk_ptr is not a valid offset array")
        degrees = np.diff(chk_ptr)
        if degrees.min() < 1:
            raise ValueError("every check must touch at least one variable")
        if chk_var.size and (chk_var.min() < 0 or chk_var.max() >= self.n):
            raise ValueError("variable index out of range")
        if np.bincount(chk_var, minlength=self.n).min() < 1:
            raise ValueError("every variable must appear in at least one check")
        same_check = np.ones(chk_var.size - 1, dtype=bool)
        same_check[chk_ptr[1:-1] - 1] = False
        if np.any(np.diff(chk_var)[same_check] <= 0):
            raise ValueError("variable indices must strictly increase within each check")
        colour = _colour_checks(chk_ptr, chk_var, self.n)
        layer_chk = np.argsort(colour, kind="stable")
        layer_ptr = np.concatenate(([0], np.cumsum(np.bincount(colour))))
        object.__setattr__(self, "layer_chk", layer_chk)
        object.__setattr__(self, "layer_ptr", layer_ptr)
        object.__setattr__(self, "layer_var", chk_var[_edges_of(chk_ptr, layer_chk)])

    @property
    def edge_count(self) -> int:
        return int(self.chk_var.size)


def _edges_of(chk_ptr: np.ndarray, checks: np.ndarray) -> np.ndarray:
    """Edge indices of ``checks``, check by check, in the given order."""
    deg = chk_ptr[checks + 1] - chk_ptr[checks]
    first = np.cumsum(deg) - deg
    return np.repeat(chk_ptr[checks] - first, deg) + np.arange(int(deg.sum()))


# Odd 64-bit multiplier (2^64 / golden ratio): c -> c * K mod 2^64 is a
# bijection, so the check priorities are distinct and look random.
_PRIORITY_HASH = np.uint64(0x9E3779B97F4A7C15)


def _colour_checks(chk_ptr: np.ndarray, chk_var: np.ndarray, n: int) -> np.ndarray:
    """Colour the checks so that no two checks of one colour share a variable.

    Greedy first fit in falling hash priority: each check takes the least
    colour that no earlier check sharing a variable holds, read from one
    Python-int bitmask per variable. These are the colours of Jones-Plassmann
    with first fit (SIAM J. Sci. Comput. 14(3), 1993), which colours a check
    after its higher-priority neighbours and before its lower-priority ones.
    """
    m = chk_ptr.size - 1
    order = np.argsort(~(np.arange(m, dtype=np.uint64) * _PRIORITY_HASH))
    var = memoryview(chk_var)  # read in place: a list of its ints would set peak RSS
    used = [0] * n
    greedy = []
    for lo, hi in zip(memoryview(chk_ptr[order]), memoryview(chk_ptr[order + 1])):
        vs = var[lo:hi]
        taken = 0
        for v in vs:
            taken |= used[v]
        bit = ~taken & (taken + 1)  # the lowest colour not taken
        for v in vs:
            used[v] |= bit
        greedy.append(bit.bit_length() - 1)
    colour = np.empty(m, dtype=np.int64)
    colour[order] = greedy
    return colour


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of one belief-propagation run.

    ``converged`` is True only when the hard decision's syndrome equals the
    target exactly; ``bits`` then lie in the requested coset. Otherwise
    ``bits`` carry the best-effort hard decision after ``iterations_used``
    sweeps.
    """

    bits: np.ndarray
    converged: bool
    iterations_used: int


def _bits(x, k: int, what: str) -> np.ndarray:
    """``x`` as a uint8 vector of length ``k``, the package's one bit rule:
    a shape other than (k,), a dtype other than integer or bool, or a value
    outside {0, 1} raises ValueError, its message naming ``what``."""
    b = np.asarray(x)
    if b.shape != (k,):
        raise ValueError(f"expected {k} {what}, got shape {b.shape}")
    if b.dtype.kind not in "biu" or b.min() < 0 or b.max() > 1:
        raise ValueError(f"{what} must be integers or bools in {{0, 1}}, got {b.dtype}")
    return b.astype(np.uint8, copy=False)


def syndrome(code: LdpcCode, bits) -> np.ndarray:
    """GF(2) syndrome H b, as uint8, of a length-n vector of integer or bool
    bits in {0, 1}; anything else raises ValueError."""
    b = _bits(bits, code.n, "bits")
    return np.bitwise_xor.reduceat(b[code.chk_var], code.chk_ptr[:-1])


def decode(code: LdpcCode, lapprs, target, max_iters: int = 100) -> DecodeOutcome:
    """Syndrome-aware sum-product decoding toward a target coset.

    Layered schedule (Hocevar, "A reduced complexity decoder architecture
    via layered decoding of LDPC codes", IEEE SiPS 2004): one posterior log
    ratio P per variable, and the checks taken one layer at a time, where
    no two checks of a layer share a variable. For each layer, the
    variable-to-check messages are P - c2v over its edges, the check
    update gives new c2v, and P becomes v2c + c2v, so later layers of the
    same sweep already see the update. The hard decision of P is tested
    against the target syndrome before the first sweep and after each full
    sweep over the layers, stopping early on a match; each test takes the
    first layer's checks first, and the whole syndrome only when they all
    match. Check updates use the numerically safe tanh/atanh form
    with the product magnitude clamped to 1 - 1e-12; a check whose target
    syndrome bit is 1 negates its outgoing messages.

    P and c2v are kept as L/2, so the check update takes tanh of
    v2c / 2 and returns arctanh of the product as c2v / 2 with no
    multiplication. When every input halves exactly, the half-scale sums
    and differences are exactly half the L-scale ones, subnormal or not,
    so every message, decision and sweep count is that of the L-scale
    update. Only an odd multiple of 2^-1074 below 2^-1021 rounds when
    halved (-2^-1074 becomes -0.0, which decides 0); given one, the
    decoder runs at L scale, with both multiplications.

    Parameters
    ----------
    code : LdpcCode
    lapprs : array, shape (n,)
        Finite log-ratios log(P(bit=0)/P(bit=1)); pre-clamp them.
    target : array, shape (m,)
        Syndrome bits of the sequence being reconstructed: integers or
        bools in {0, 1}, as ``syndrome`` takes its bits.
    max_iters : int
        Sweep limit; an integer >= 1, not a bool.

    Returns
    -------
    DecodeOutcome
        Deterministic for identical inputs, bit for bit.
    """
    lam = np.asarray(lapprs, dtype=float)
    if lam.shape != (code.n,):
        raise ValueError(f"expected {code.n} soft inputs, got shape {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise ValueError("soft inputs must be finite")
    tgt = _bits(target, code.m, "syndrome bits")
    if isinstance(max_iters, bool) or not isinstance(max_iters, numbers.Integral) or max_iters < 1:
        raise ValueError(f"max_iters must be an integer >= 1, got {max_iters!r}")

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
    # The syndrome test: the first layer's checks, about a tenth of them on
    # the 64800-bit code, and the whole syndrome only when they all match.
    _, var0, first0, _, _ = layers[0]
    tgt0 = tgt[code.layer_chk[: code.layer_ptr[1]]]

    def in_coset(p):
        """The hard decision of p when its syndrome is the target, else None."""
        if not np.array_equal(np.bitwise_xor.reduceat(p[var0] < 0, first0), tgt0):
            return None
        bits = (p < 0).astype(np.uint8)
        return bits if np.array_equal(syndrome(code, bits), tgt) else None

    bits = in_coset(lam)
    if bits is not None:
        return DecodeOutcome(bits=bits, converged=True, iterations_used=0)

    # P and c2v at half scale (see above), where halving the input is exact.
    post = lam * 0.5
    halved = np.array_equal(post + post, lam)
    if not halved:
        post = lam.copy()
    # Edge buffers, allocated once; a layer works on its slice of each.
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
            if halved:
                np.tanh(x, out=t)
            else:
                np.multiply(x, 0.5, out=t)
                np.tanh(t, out=t)
            # Signs travel as IEEE sign bits: split them off here, so the
            # leave-one-out sign of an edge is the XOR of its check's sign
            # bits, its own and the check's syndrome bit.
            np.bitwise_and(tb, _SIGN_BIT, out=sb)
            np.bitwise_xor(tb, sb, out=tb)
            np.clip(t, _MAG_FLOOR, _TANH_CLIP, out=t)
            np.log(t, out=t)
            # Leave-one-out products per check, split into magnitude and sign.
            sum_l = np.add.reduceat(t, first)
            par = np.bitwise_xor.reduceat(sb, first)
            par ^= s
            np.subtract(np.repeat(sum_l, d), t, out=t)
            np.exp(t, out=t)
            np.minimum(t, _TANH_CLIP, out=t)
            np.arctanh(t, out=t)
            if not halved:
                t *= 2.0
            np.bitwise_xor(sb, np.repeat(par, d), out=sb)
            np.bitwise_xor(tb, sb, out=tb)
            np.add(x, t, out=x)
            post[var] = x

        bits = in_coset(post)
        if bits is not None:
            return DecodeOutcome(bits=bits, converged=True, iterations_used=it)

    bits = (post < 0).astype(np.uint8)
    return DecodeOutcome(bits=bits, converged=False, iterations_used=max_iters)


# ---------------------------------------------------------------------------
# alist serialization (MacKay layout, 1-indexed, zero-padded rows)


def parse_alist(text: str) -> LdpcCode:
    """Parse alist text into a code, with line-level diagnostics.

    Layout: "n m", "max_col_deg max_row_deg", n column degrees, m row
    degrees, n column adjacency lines (1-indexed check ids), m row
    adjacency lines (1-indexed variable ids). Zero padding is accepted and
    ignored. The row and column adjacency lists must describe the same
    matrix.
    """

    def fail(lineno: int, msg: str) -> ValueError:
        return ValueError(f"alist line {lineno}: {msg}")

    lines = text.splitlines()
    rows: list[tuple[int, list[int]]] = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        try:
            rows.append((lineno, [int(tok) for tok in stripped.split()]))
        except ValueError:
            raise fail(lineno, f"non-integer token in {stripped!r}") from None
    if len(rows) < 4:
        raise ValueError("alist: fewer than four header lines")
    (ln1, head), (ln2, maxima) = rows[0], rows[1]
    if len(head) != 2:
        raise fail(ln1, "expected 'n m'")
    n, m = head
    if n < 1 or m < 1:
        raise fail(ln1, f"invalid dimensions n={n}, m={m}")
    if len(maxima) != 2:
        raise fail(ln2, "expected 'max_col_degree max_row_degree'")
    if len(rows) != 4 + n + m:
        raise ValueError(
            f"alist: expected {4 + n + m} content lines for n={n}, m={m}, got {len(rows)}"
        )
    ln3, col_deg = rows[2]
    ln4, row_deg = rows[3]
    if len(col_deg) != n:
        raise fail(ln3, f"expected {n} column degrees, got {len(col_deg)}")
    if len(row_deg) != m:
        raise fail(ln4, f"expected {m} row degrees, got {len(row_deg)}")

    def adjacency(entries, count, limit, degrees, what, other):
        out = []
        for k in range(count):
            lineno, vals = entries[k]
            ids = [v for v in vals if v != 0]
            if len(ids) != degrees[k]:
                raise fail(
                    lineno,
                    f"{what} {k + 1} lists {len(ids)} entries, degree says {degrees[k]}",
                )
            for v in ids:
                if not 1 <= v <= limit:
                    raise fail(lineno, f"{other} index {v} outside 1..{limit}")
            if len(set(ids)) != len(ids):
                raise fail(lineno, f"duplicate entry in {what} {k + 1}")
            out.append(sorted(ids))
        return out

    col_lists = adjacency(rows[4 : 4 + n], n, m, col_deg, "column", "check")
    row_lists = adjacency(rows[4 + n :], m, n, row_deg, "row", "variable")

    chk_ptr = np.concatenate(([0], np.cumsum([len(r) for r in row_lists])))
    chk_var = np.array(
        [v - 1 for r in row_lists for v in r] or [0], dtype=np.int64
    )[: int(chk_ptr[-1])]
    code = LdpcCode(n=n, m=m, chk_ptr=chk_ptr, chk_var=chk_var)
    # Cross-check the two adjacency views against each other.
    from_cols = sorted((v + 1, c) for v, checks in enumerate(col_lists) for c in checks)
    edge_chk = np.repeat(np.arange(m), np.diff(code.chk_ptr))
    from_rows = sorted((v + 1, c + 1) for c, v in zip(edge_chk, code.chk_var))
    if from_cols != from_rows:
        raise ValueError("alist: row and column adjacency lists disagree")
    return code


def to_alist(code: LdpcCode) -> str:
    """Serialize a code to alist text (zero-padded, 1-indexed)."""
    col_lists: list[list[int]] = [[] for _ in range(code.n)]
    for c in range(code.m):
        for v in code.chk_var[code.chk_ptr[c] : code.chk_ptr[c + 1]]:
            col_lists[v].append(c + 1)
    row_lists = [
        [int(v) + 1 for v in code.chk_var[code.chk_ptr[c] : code.chk_ptr[c + 1]]]
        for c in range(code.m)
    ]
    max_col = max(len(x) for x in col_lists)
    max_row = max(len(x) for x in row_lists)

    def pad(vals, width):
        return " ".join(str(v) for v in vals + [0] * (width - len(vals)))

    out = [f"{code.n} {code.m}", f"{max_col} {max_row}"]
    out.append(" ".join(str(len(x)) for x in col_lists))
    out.append(" ".join(str(len(x)) for x in row_lists))
    out.extend(pad(x, max_col) for x in col_lists)
    out.extend(pad(x, max_row) for x in row_lists)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Built-in codes


def hamming74() -> LdpcCode:
    """The (7,4) Hamming parity-check fixture: 3 checks, all degree 4.

    Column j (1-indexed) participates in the checks reading the binary
    digits of j, so a single-bit error at position j yields j itself as the
    syndrome value.
    """
    rows = [[v for v in range(1, 8) if v >> c & 1] for c in range(3)]
    chk_ptr = np.concatenate(([0], np.cumsum([len(r) for r in rows])))
    chk_var = np.array([v - 1 for r in rows for v in r], dtype=np.int64)
    return LdpcCode(n=7, m=3, chk_ptr=chk_ptr, chk_var=chk_var)


def build_staircase_code(group_addresses: list[list[int]], group: int = 360) -> LdpcCode:
    """Assemble an IRA/staircase code from per-group base addresses.

    Info bit ``s`` of group ``g`` (variable g*group + s) joins checks
    ``(a + s*q) mod m`` for each base address ``a`` of the group, with
    q = m / group. Parity variable c joins checks c and c+1 (the
    accumulator chain), giving every parity column degree 2 except the last.
    The number of checks m is inferred: the smallest multiple of ``group``
    above the largest address. A group row that names one address twice
    would make double edges, and ``LdpcCode`` rejects it.

    Parameters
    ----------
    group_addresses : list of list of int
        One row per info group; non-negative entries.
    group : int
        Info bits per group (circulant size), 360 for the broadcast family.
    """
    if not group_addresses:
        raise ValueError("address table is empty")
    flat = [a for row in group_addresses for a in row]
    if not flat:
        raise ValueError("address table has no entries")
    top = max(flat)
    if min(flat) < 0:
        raise ValueError("addresses must be non-negative")
    # m must be a multiple of the group size covering all addresses.
    q = (top // group) + 1
    m = q * group
    k = group * len(group_addresses)
    n = k + m

    chunks_chk = []
    chunks_var = []
    s = np.arange(group, dtype=np.int64)
    for g, row in enumerate(group_addresses):
        if not row:
            raise ValueError(f"group {g} has no addresses")
        addr = np.asarray(row, dtype=np.int64)
        checks = (addr[None, :] + s[:, None] * q) % m
        chunks_chk.append(checks.reshape(-1))
        chunks_var.append(np.repeat(g * group + s, addr.size))
    # Accumulator: check c reads parity c, and parity c-1 for c >= 1.
    par = np.arange(m, dtype=np.int64)
    chunks_chk.append(par)
    chunks_var.append(k + par)
    chunks_chk.append(par[1:])
    chunks_var.append(k + par[:-1])

    edge_chk = np.concatenate(chunks_chk)
    edge_var = np.concatenate(chunks_var)
    order = np.lexsort((edge_var, edge_chk))
    edge_chk = edge_chk[order]
    edge_var = edge_var[order]
    chk_ptr = np.concatenate(([0], np.cumsum(np.bincount(edge_chk, minlength=m))))
    return LdpcCode(n=n, m=m, chk_ptr=chk_ptr, chk_var=edge_var)


# The rate-1/2 group address table: 36 rows of 8 addresses, then 54 rows of
# 3. It was drawn once by rejection sampling, row by row, from
# numpy.random.default_rng(20240229), and is frozen here so that the preset
# is the same on every install without paying for the sampler. Constraints
# the draw enforced (the built code is checked against them in the tests):
#
# * exactly 5 addresses per residue class mod q = 90 (uniform check degree 7
#   once the accumulator adds 2);
# * no two addresses of a group differ by +-1 mod m (such a column would
#   straddle an accumulator pair: a 4-cycle through a parity bit);
# * within a group, same-residue address pairs have distinct, non-opposite
#   circulant shift differences, none equal to 0 or 180 (4-cycles inside one
#   block column);
# * across groups, shared-residue shift differences are unique per group
#   pair (4-cycles between block columns).
_R12_GROUP = 360
_R12_TABLE = [
    [5234, 9358, 12780, 13833, 20183, 22208, 24142, 25596],
    [850, 7113, 15576, 19696, 23068, 23733, 26146, 27812],
    [4069, 5632, 7134, 10303, 20461, 22751, 24913, 25030],
    [1407, 6490, 12655, 16082, 21870, 22204, 23337, 29432],
    [7406, 9414, 11333, 11724, 13129, 14483, 18275, 19780],
    [859, 1178, 19208, 21982, 24344, 31251, 31975, 32055],
    [117, 2781, 7436, 9537, 10414, 11010, 12637, 26084],
    [4995, 10924, 12663, 13324, 15786, 16119, 22168, 29159],
    [533, 676, 3669, 3828, 23059, 23588, 24020, 24200],
    [11794, 13884, 22532, 24998, 25854, 26608, 27097, 29640],
    [5326, 5723, 6908, 17161, 19443, 23012, 27072, 28861],
    [5956, 12268, 14325, 14699, 15213, 26409, 26454, 30949],
    [246, 6288, 7490, 8831, 10782, 11168, 19195, 19529],
    [6875, 7076, 10082, 12371, 14799, 24791, 26178, 27206],
    [9174, 11477, 12054, 21664, 26181, 28207, 29842, 31062],
    [1731, 2676, 3247, 4311, 4951, 14695, 18480, 21455],
    [16085, 18642, 20239, 20626, 22788, 24459, 30451, 32197],
    [0, 4644, 5333, 6084, 21492, 29152, 31536, 32281],
    [8178, 10526, 18646, 22613, 24702, 29467, 30576, 31940],
    [533, 4479, 8723, 9980, 11900, 18449, 28725, 30141],
    [2310, 4929, 6236, 14156, 15043, 18705, 24360, 29949],
    [3204, 10571, 11742, 12430, 13451, 18896, 24477, 25303],
    [6202, 12771, 14598, 18021, 25906, 26153, 28049, 30208],
    [7152, 13472, 17015, 18997, 19422, 20944, 23613, 29055],
    [977, 4188, 14327, 24627, 24737, 27596, 27929, 29300],
    [4242, 8354, 23401, 24205, 27105, 29635, 29930, 31703],
    [3925, 18538, 24545, 25981, 27200, 27344, 27557, 30464],
    [7925, 11225, 16656, 17893, 25737, 29258, 31538, 32172],
    [225, 5180, 7608, 13727, 18635, 20744, 23415, 26871],
    [464, 6177, 7720, 17638, 19000, 21374, 23050, 27395],
    [1056, 6499, 8836, 10961, 19447, 21868, 21982, 31272],
    [6048, 7031, 10281, 14749, 15382, 16214, 16910, 20841],
    [242, 7245, 10022, 11115, 13828, 16699, 23566, 32299],
    [3132, 4285, 4307, 6873, 16942, 18919, 25466, 31273],
    [2310, 2837, 14074, 19827, 22845, 25334, 29889, 30209],
    [1709, 5819, 6918, 15343, 19153, 21451, 22899, 31770],
    [17775, 27213, 29394], [11031, 14639, 22727], [9660, 13377, 30730], [3347, 11023, 12928],
    [13321, 17009, 19348], [5536, 16399, 32360], [8222, 11606, 15835], [21041, 25675, 28712],
    [297, 2751, 17739], [12383, 15663, 18516], [6042, 19719, 28930], [4000, 5467, 13927],
    [15042, 18068, 21583], [14528, 22970, 24097], [700, 7310, 20001], [3935, 4916, 28957],
    [14901, 15844, 29552], [4861, 17170, 29431], [27403, 28380, 31642], [24423, 25102, 31395],
    [34, 10072, 24623], [17149, 29396, 31234], [12106, 21988, 24265], [9009, 9758, 12496],
    [20077, 21829, 22088], [6385, 10084, 21713], [3797, 10129, 29855], [9332, 11731, 20444],
    [4546, 4629, 5591], [10112, 15633, 32234], [1813, 11459, 15548], [1806, 29906, 30633],
    [11065, 14697, 15747], [7338, 11549, 21277], [15313, 21326, 25780], [307, 6089, 27485],
    [1335, 8602, 19345], [10331, 14586, 32323], [7776, 13061, 13271], [2570, 20400, 28921],
    [6994, 7128, 15990], [16478, 25904, 30347], [4506, 4846, 19847], [20680, 23008, 31398],
    [1800, 11072, 23688], [6774, 26494, 29843], [12483, 20424, 22224], [12947, 17585, 25903],
    [11324, 11671, 25165], [19019, 27034, 28541], [13415, 17758, 21317], [5422, 14256, 16428],
    [13391, 27003, 30022], [23997, 27897, 30549],
]


def dvbs2_r12() -> LdpcCode:
    """The bundled rate-1/2, n=64800 staircase code (see module docstring).

    Builds a fresh code on every call; ``load_code`` keeps the built one."""
    return build_staircase_code(_R12_TABLE, group=_R12_GROUP)


PRESETS = {
    "hamming74": hamming74,
    "dvbs2-r12-64800": dvbs2_r12,
}


@cache
def load_code(source: str | Path) -> LdpcCode:
    """Load a code from a preset name, an alist file path, or alist text.

    Text is recognized by containing a newline; otherwise the name is tried
    against the presets and then the filesystem. Each source is built once
    per process and the same code object returned after that; callers must
    not modify its arrays.
    """
    if isinstance(source, str) and "\n" in source:
        return parse_alist(source)
    if source in PRESETS:
        return PRESETS[source]()
    p = Path(source)
    if p.is_file():
        return parse_alist(p.read_text())
    raise ValueError(
        f"unknown code source {source!r}: not a preset ({', '.join(sorted(PRESETS))}), "
        "not an existing file, not alist text"
    )
