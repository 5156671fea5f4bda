"""LDPC outer code: alist loading, systematic encoding, and sum-product decoding.

The decoder is a flooding-schedule sum-product implementation in the
log domain, vectorized over both edges and frames. LLR sign convention
matches the demappers: positive means bit 0. A code derives its encoder
from the parity-check matrix by GF(2) row reduction when it is built, so
a rank-deficient matrix is rejected at load time; pivot columns become
parity positions, the remaining columns carry the information bits. Each
parity bit is a GF(2) inner product, computed on bits packed into uint64
words: AND, XOR-accumulate over the words, then popcount parity.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DataFormatError

BUNDLED_CODE_NAME = "peg_dv3_n1992_r34.alist"

# Message clamp: tanh(36/2) stays strictly below 1 in float64, so the
# check-node product never saturates to exactly +-1.
_MSG_CLAMP = 36.0
_TANH_CLIP = 1.0 - 1e-12


class ParityCheckCode:
    """Sparse bipartite parity-check structure with its edge arrays and systematic encoder.

    check_lists : per check, the (0-based, sorted) variable indices it touches
    """

    def __init__(self, n: int, check_lists: list, name: str = ""):
        self.n = int(n)
        self.num_checks = len(check_lists)
        self.name = name
        if not 0 < self.num_checks < self.n:
            raise ValueError("need 0 < number of checks < n for a rate in (0, 1)")
        cl = []
        for c, vs in enumerate(check_lists):
            arr = np.asarray(sorted(vs), dtype=np.int64)
            if arr.size == 0:
                raise ValueError(f"check {c} has no variables")
            if arr[0] < 0 or arr[-1] >= self.n:
                raise ValueError(f"check {c} references a variable out of range")
            if len(np.unique(arr)) != arr.size:
                raise ValueError(f"check {c} lists a variable twice")
            cl.append(arr)
        self.check_lists = cl
        # check-major edge arrays
        self.check_deg = np.array([len(a) for a in cl], dtype=np.int64)
        self.check_ptr = np.concatenate([[0], np.cumsum(self.check_deg)])
        self.edge_var = np.concatenate(cl)
        self.check_of_edge = np.repeat(np.arange(self.num_checks), self.check_deg)
        self.var_deg = np.bincount(self.edge_var, minlength=self.n)
        if np.any(self.var_deg == 0):
            bad = int(np.argmin(self.var_deg))
            raise ValueError(f"variable {bad} participates in no check")
        self.var_ptr = np.concatenate([[0], np.cumsum(self.var_deg)])
        # var-major traversal: positions into the check-major edge arrays
        self.perm_vc = np.lexsort((self.check_of_edge, self.edge_var))
        self.var_of_edge_vm = np.repeat(np.arange(self.n), self.var_deg)
        # systematic encoder: pivot columns carry parity, the rest information
        H, pivots = _gf2_rref(self.dense_matrix())
        if len(pivots) != self.num_checks:
            raise ValueError("parity-check matrix is rank deficient; no systematic encoder exists")
        self.pivot_cols = np.asarray(pivots, dtype=np.int64)
        self.info_cols = np.setdiff1d(np.arange(self.n), self.pivot_cols)
        self.parity_words = _pack_words(H[:, self.info_cols])

    @property
    def k(self) -> int:
        return self.n - self.num_checks

    @property
    def rate(self) -> float:
        return self.k / self.n

    def dense_matrix(self) -> np.ndarray:
        H = np.zeros((self.num_checks, self.n), dtype=np.uint8)
        for c, vs in enumerate(self.check_lists):
            H[c, vs] = 1
        return H

    def syndrome(self, bits: np.ndarray) -> np.ndarray:
        """Parity of each check for hard bits of shape (..., n)."""
        # uint8 sums wrap at 256, which keeps their parity
        gathered = np.asarray(bits, dtype=np.uint8)[..., self.edge_var]
        return np.add.reduceat(gathered, self.check_ptr[:-1], axis=-1, dtype=np.uint8) & 1


def _gf2_rref(H: np.ndarray):
    """Reduced row echelon form over GF(2); returns (matrix, pivot columns)."""
    H = H.copy()
    rows, cols = H.shape
    pivots = []
    r = 0
    for col in range(cols):
        if r == rows:
            break
        hits = np.nonzero(H[r:, col])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            H[[r, p]] = H[[p, r]]
        elim = np.nonzero(H[:, col])[0]
        elim = elim[elim != r]
        H[elim] ^= H[r]
        pivots.append(col)
        r += 1
    return H, pivots


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 entries along the last axis into zero-padded uint64 words."""
    packed = np.packbits(bits, axis=-1)
    nbytes = packed.shape[-1]
    words = np.zeros(packed.shape[:-1] + (nbytes + -nbytes % 8,), dtype=np.uint8)
    words[..., :nbytes] = packed
    return words.view(np.uint64)


def encode(code: ParityCheckCode, info_bits: np.ndarray) -> np.ndarray:
    """Systematic encoding; output satisfies every parity check.

    Accepts (k,) or (batch, k) arrays of 0/1 (or bool); any other entry
    raises ValueError.
    """
    u = np.asarray(info_bits)
    if not np.all((u == 0) | (u == 1)):
        raise ValueError("information bits must be 0 or 1")
    single = u.ndim == 1
    u2 = np.atleast_2d(u).astype(np.uint8, copy=False)
    if u2.shape[1] != code.k:
        raise ValueError(f"expected {code.k} information bits, got {u2.shape[1]}")
    u_words = _pack_words(u2)
    acc = np.zeros((u2.shape[0], code.num_checks), dtype=np.uint64)
    for j in range(u_words.shape[1]):
        acc ^= u_words[:, j, None] & code.parity_words[:, j]
    cw = np.zeros((u2.shape[0], code.n), dtype=np.uint8)
    cw[:, code.info_cols] = u2
    cw[:, code.pivot_cols] = np.bitwise_count(acc) & 1
    return cw[0] if single else cw


def info_bits_of(code: ParityCheckCode, codewords: np.ndarray) -> np.ndarray:
    """Extract the information positions from (systematic) codewords."""
    return np.asarray(codewords)[..., code.info_cols]


def decode_bp(code: ParityCheckCode, llrs: np.ndarray, max_iters: int = 50):
    """Flooding-schedule sum-product decoding with syndrome early exit.

    Accepts (n,) or (batch, n) LLRs; returns (bits, converged, iterations)
    with matching batch shape. Frames whose hard decision satisfies all
    checks stop updating; their returned word is the satisfying codeword.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    L = np.asarray(llrs, dtype=np.float64)
    single = L.ndim == 1
    L = np.atleast_2d(L)
    if L.shape[1] != code.n:
        raise ValueError(f"expected {code.n} LLRs per frame, got {L.shape[1]}")
    B = L.shape[0]

    out_bits = np.zeros((B, code.n), dtype=np.uint8)
    out_conv = np.zeros(B, dtype=bool)
    out_iters = np.full(B, max_iters, dtype=np.int64)

    cp, vp, ce = code.check_ptr, code.var_ptr, code.check_of_edge
    pvc, vve = code.perm_vc, code.var_of_edge_vm

    live = np.arange(B)          # original frame index of each active row
    Lch = L.copy()
    Lq = Lch[:, code.edge_var]

    for it in range(1, max_iters + 1):
        # check-node update (leave-one-out via log-magnitude sums and sign parity)
        t = np.tanh(0.5 * np.clip(Lq, -_MSG_CLAMP, _MSG_CLAMP))
        mag = np.log(np.maximum(np.abs(t), 1e-300))
        neg = (t < 0.0).astype(np.int64)
        seg_mag = np.add.reduceat(mag, cp[:-1], axis=1)
        seg_par = np.add.reduceat(neg, cp[:-1], axis=1)
        loo_mag = seg_mag[:, ce] - mag
        loo_sign = 1.0 - 2.0 * ((seg_par[:, ce] - neg) & 1)
        Lr = 2.0 * np.arctanh(np.minimum(np.exp(loo_mag), _TANH_CLIP)) * loo_sign

        # variable-node update
        Lr_vm = Lr[:, pvc]
        post = Lch + np.add.reduceat(Lr_vm, vp[:-1], axis=1)
        Lq_vm = post[:, vve] - Lr_vm
        Lq[:, pvc] = Lq_vm

        # converged = zero syndrome with every bit strictly decided; an
        # all-zero input would otherwise "converge" on the zero word.
        hard = (post < 0.0).astype(np.uint8)
        ok = ~code.syndrome(hard).any(axis=1) & (post != 0.0).all(axis=1)
        if np.any(ok):
            done = np.nonzero(ok)[0]
            out_bits[live[done]] = hard[done]
            out_conv[live[done]] = True
            out_iters[live[done]] = it
            keep = np.nonzero(~ok)[0]
            if keep.size == 0:
                break
            live, Lch, Lq, post = live[keep], Lch[keep], Lq[keep], post[keep]

    if live.size:
        out_bits[live] = (post < 0.0).astype(np.uint8)
    if single:
        return out_bits[0], bool(out_conv[0]), int(out_iters[0])
    return out_bits, out_conv, out_iters


def interleave(values: np.ndarray, seed: int) -> np.ndarray:
    """Seeded pseudo-random permutation along the last axis."""
    x = np.asarray(values)
    perm = np.random.default_rng(seed).permutation(x.shape[-1])
    return x[..., perm]


def deinterleave(values: np.ndarray, seed: int) -> np.ndarray:
    """Inverse of :func:`interleave` for the same seed."""
    x = np.asarray(values)
    perm = np.random.default_rng(seed).permutation(x.shape[-1])
    return x[..., np.argsort(perm)]


def _int_tokens(line: str, where: str) -> list:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError as exc:
        raise DataFormatError(f"non-integer token in {where}: {line!r}") from exc


def load_alist(path) -> ParityCheckCode:
    """Parse a standard alist sparse parity-check file.

    Degree declarations are enforced exactly (zero padding allowed), and the
    variable-side and check-side adjacency lists must describe the same
    edge set.
    """
    try:
        with open(path) as fh:
            lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"alist file is not text: {exc}") from exc
    if len(lines) < 4:
        raise DataFormatError("alist file too short")
    head = _int_tokens(lines[0], "size line")
    if len(head) != 2:
        raise DataFormatError(f"expected 'n m' on the first line, got {lines[0]!r}")
    n, mc = head
    if n <= 0 or mc <= 0:
        raise DataFormatError("alist dimensions must be positive")
    maxdeg = _int_tokens(lines[1], "max-degree line")
    if len(maxdeg) != 2:
        raise DataFormatError("expected 'max_dv max_dc' on the second line")
    max_dv, max_dc = maxdeg
    dv = _int_tokens(lines[2], "variable degree line")
    dc = _int_tokens(lines[3], "check degree line")
    if len(dv) != n:
        raise DataFormatError(f"expected {n} variable degrees, got {len(dv)}")
    if len(dc) != mc:
        raise DataFormatError(f"expected {mc} check degrees, got {len(dc)}")
    if max(dv) > max_dv or max(dc) > max_dc:
        raise DataFormatError("declared maximum degree exceeded")
    if min(dv) < 1:
        raise DataFormatError("every variable must have degree >= 1")
    if len(lines) != 4 + n + mc:
        raise DataFormatError(f"expected {4 + n + mc} lines, found {len(lines)}")

    def parse_block(rows, degrees, limit, what):
        out = []
        for i, line in enumerate(rows):
            entries = _int_tokens(line, f"{what} list {i}")
            nonzero = [e for e in entries if e != 0]
            if len(nonzero) != degrees[i]:
                raise DataFormatError(
                    f"{what} {i} lists {len(nonzero)} entries but declares degree {degrees[i]}"
                )
            if any(e < 1 or e > limit for e in nonzero):
                raise DataFormatError(f"{what} {i} has an index out of range")
            if len(set(nonzero)) != len(nonzero):
                raise DataFormatError(f"{what} {i} repeats an index")
            out.append(sorted(e - 1 for e in nonzero))
        return out

    var_lists = parse_block(lines[4:4 + n], dv, mc, "variable")
    check_lists = parse_block(lines[4 + n:], dc, n, "check")
    edges_v = {(c, v) for v, cs in enumerate(var_lists) for c in cs}
    edges_c = {(c, v) for c, vs in enumerate(check_lists) for v in vs}
    if edges_v != edges_c:
        raise DataFormatError("variable and check adjacency lists disagree")
    try:
        return ParityCheckCode(n, check_lists, name=Path(path).stem)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from exc


@lru_cache(maxsize=1)
def bundled_code() -> ParityCheckCode:
    """The packaged rate-3/4 code (n divisible by every supported bits/symbol)."""
    ref = resources.files("qcilink.codes").joinpath(BUNDLED_CODE_NAME)
    with resources.as_file(ref) as p:
        return load_alist(p)
