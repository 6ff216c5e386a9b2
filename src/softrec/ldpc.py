"""Binary LDPC codes and syndrome-aware belief propagation.

The decoder solves the coset problem of reconciliation: given soft inputs
for the other party's bit string and the syndrome of that string under an
agreed parity-check matrix, find the most plausible member of the matching
coset. Check nodes absorb the target syndrome directly: a check whose
syndrome bit is 1 flips the sign of its outgoing messages, which is
algebraically identical to decoding the all-zero-syndrome problem on
sign-translated inputs (the tests pin that equivalence down bit for bit).

Codes load from alist text (MacKay layout, 1-indexed adjacency) or from two
built-in presets:

* ``hamming74``: the 3x7 single-error-correcting fixture.
* ``dvbs2-r12-64800``: a rate-1/2, n=64800 staircase (IRA) code with the
  broadcast-standard structural profile: q=90, 360-bit info groups, 36
  degree-8 and 54 degree-3 group rows, uniform check degree 7, accumulator
  parity chain. The group address table is generated deterministically from
  a fixed seed under 4-cycle-free and row-balance constraints, so the
  preset is identical on every install; ``build_staircase_code`` accepts
  any explicit address table with the same rule.
"""

from __future__ import annotations

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
    """

    n: int
    m: int
    chk_ptr: np.ndarray
    chk_var: np.ndarray
    # Derived, filled in __post_init__: per-edge check index, and the
    # variable-major view of the same edges for the decoder's second pass.
    edge_chk: np.ndarray = field(init=False, repr=False)
    var_ptr: np.ndarray = field(init=False, repr=False)
    var_edge: np.ndarray = field(init=False, repr=False)

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
        col_deg = np.bincount(chk_var, minlength=self.n)
        if col_deg.min() < 1:
            raise ValueError("every variable must appear in at least one check")
        edge_chk = np.repeat(np.arange(self.m, dtype=np.int64), degrees)
        same_check = edge_chk[1:] == edge_chk[:-1]
        if np.any(np.diff(chk_var)[same_check] <= 0):
            raise ValueError("variable indices must strictly increase within each check")
        var_edge = np.argsort(chk_var, kind="stable").astype(np.int64)
        var_ptr = np.concatenate(([0], np.cumsum(col_deg))).astype(np.int64)
        object.__setattr__(self, "edge_chk", edge_chk)
        object.__setattr__(self, "var_ptr", var_ptr)
        object.__setattr__(self, "var_edge", var_edge)

    @property
    def edge_count(self) -> int:
        return int(self.chk_var.size)


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


def syndrome(code: LdpcCode, bits) -> np.ndarray:
    """GF(2) syndrome H b of a length-n bit vector."""
    b = np.asarray(bits, dtype=np.uint8)
    if b.shape != (code.n,):
        raise ValueError(f"expected {code.n} bits, got shape {b.shape}")
    return np.bitwise_xor.reduceat(b[code.chk_var], code.chk_ptr[:-1])


def decode(code: LdpcCode, lapprs, target, max_iters: int = 100) -> DecodeOutcome:
    """Syndrome-aware sum-product decoding toward a target coset.

    Flooding schedule: every check node updates, then every variable node;
    the running hard decision is tested against the target syndrome before
    the first sweep and after each one, stopping early on a match. Check
    updates use the numerically safe tanh/atanh form with the product
    magnitude clamped to 1 - 1e-12; a check whose target syndrome bit is 1
    negates its outgoing messages.

    Parameters
    ----------
    code : LdpcCode
    lapprs : array, shape (n,)
        Finite log-ratios log(P(bit=0)/P(bit=1)); pre-clamp them.
    target : array, shape (m,)
        Syndrome bits of the sequence being reconstructed.
    max_iters : int
        Sweep limit; >= 1.

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
    tgt = np.asarray(target, dtype=np.uint8)
    if tgt.shape != (code.m,):
        raise ValueError(f"expected {code.m} syndrome bits, got shape {tgt.shape}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

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
        excl_l = sum_l[code.edge_chk] - lmag
        excl_neg = par[code.edge_chk] ^ neg
        prod = np.exp(excl_l)
        np.minimum(prod, _TANH_CLIP, out=prod)
        c2v = 2.0 * np.arctanh(prod)
        np.negative(c2v, out=c2v, where=excl_neg)

        acc = np.add.reduceat(c2v[code.var_edge], code.var_ptr[:-1])
        total = lam + acc
        v2c = total[code.chk_var] - c2v

        bits = (total < 0).astype(np.uint8)
        if np.array_equal(syndrome(code, bits), tgt):
            return DecodeOutcome(bits=bits, converged=True, iterations_used=it)

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
    from_rows = sorted((v + 1, c + 1) for c, v in zip(code.edge_chk, code.chk_var))
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


# Fixed literal seed: the preset must be identical on every machine.
_R12_TABLE_SEED = 20240229
_R12_Q = 90
_R12_GROUP = 360
_R12_DEGREES = (8,) * 36 + (3,) * 54


def _r12_table_rows(seed: int = _R12_TABLE_SEED) -> list[list[int]]:
    """Deterministic rate-1/2 group address table under girth constraints.

    Constraints enforced during rejection sampling:

    * exactly 5 addresses per residue class mod q (uniform check degree 7
      once the accumulator adds 2);
    * no two addresses of a group differing by +-1 mod m (such a column
      would straddle an accumulator pair: a 4-cycle through a parity bit);
    * within a group, same-residue address pairs must have distinct,
      non-opposite circulant shift differences, none equal to 0 or 180
      (4-cycles inside one block column);
    * across groups, shared-residue shift differences must be unique per
      group pair (4-cycles between block columns).
    """
    rng = np.random.default_rng(seed)
    m = _R12_Q * _R12_GROUP
    for _restart in range(200):
        per_residue = np.full(_R12_Q, 5, dtype=np.int64)
        rows: list[list[int]] = []
        by_residue: dict[int, list[tuple[int, int]]] = {v: [] for v in range(_R12_Q)}
        cross: dict[tuple[int, int], set[int]] = {}
        ok = True
        for g, deg in enumerate(_R12_DEGREES):
            placed = None
            for _attempt in range(4000):
                open_res = np.flatnonzero(per_residue > 0)
                if open_res.size == 0:
                    break
                cand = []
                used = set()
                for _ in range(deg):
                    weights = per_residue[open_res].astype(float)
                    weights /= weights.sum()
                    v = int(rng.choice(open_res, p=weights))
                    u = int(rng.integers(0, _R12_GROUP))
                    a = v + _R12_Q * u
                    cand.append(a)
                    used.add(a)
                if len(used) != deg:
                    continue
                if not _group_is_clean(cand, m):
                    continue
                diffs_new: dict[tuple[int, int], set[int]] = {}
                clash = False
                for a in cand:
                    v, u = a % _R12_Q, a // _R12_Q
                    for h, uh in by_residue[v]:
                        d = (u - uh) % _R12_GROUP
                        key = (h, g)
                        seen = cross.get(key, set()) | diffs_new.setdefault(key, set())
                        if d in seen:
                            clash = True
                            break
                        diffs_new[key].add(d)
                    if clash:
                        break
                if clash:
                    continue
                placed = cand
                for key, ds in diffs_new.items():
                    cross.setdefault(key, set()).update(ds)
                for a in cand:
                    v, u = a % _R12_Q, a // _R12_Q
                    by_residue[v].append((g, u))
                    per_residue[v] -= 1
                break
            if placed is None:
                ok = False
                break
            rows.append(sorted(placed))
        if ok and per_residue.max() == 0:
            return rows
    raise RuntimeError("rate-1/2 table generation failed to satisfy constraints")


def _group_is_clean(addresses: list[int], m: int) -> bool:
    """Within-group girth constraints; see _r12_table_rows."""
    arr = sorted(addresses)
    canon = set()
    for idx, a in enumerate(arr):
        for b in arr[idx + 1 :]:
            d = (a - b) % m
            if d in (1, m - 1):
                return False
            if a % _R12_Q == b % _R12_Q:
                du = ((a - b) // _R12_Q) % _R12_GROUP
                c = min(du, _R12_GROUP - du)
                if c in (0, 180) or c in canon:
                    return False
                canon.add(c)
    return True


def dvbs2_r12() -> LdpcCode:
    """The bundled rate-1/2, n=64800 staircase code (see module docstring).

    Builds a fresh code on every call; ``load_code`` keeps the built one."""
    return build_staircase_code(_r12_table_rows(), group=_R12_GROUP)


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
    if isinstance(source, Path):
        return parse_alist(source.read_text())
    if "\n" in source:
        return parse_alist(source)
    if source in PRESETS:
        return PRESETS[source]()
    p = Path(source)
    if p.exists():
        return parse_alist(p.read_text())
    raise ValueError(
        f"unknown code source {source!r}: not a preset ({', '.join(sorted(PRESETS))}), "
        "not an existing file, not alist text"
    )
