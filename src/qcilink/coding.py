"""LDPC outer code: alist loading, systematic encoding, and sum-product decoding.

The decoder is a flooding-schedule sum-product implementation by the tanh
product rule, vectorized over both edges and frames. LLR sign convention
matches the demappers: positive means bit 0. A code derives its encoder
from the parity-check matrix by GF(2) row reduction when it is built, so
a rank-deficient matrix is rejected at load time; pivot columns become
parity positions, the remaining columns carry the information bits. Each
parity bit is a GF(2) inner product, computed on bits packed into uint64
words: AND, XOR-accumulate over the words, then popcount parity.

Messages live in a slot-major check layout: column j*C + i of a (frames,
D*C) array holds the j-th edge of the i-th check, where C is the number of
checks, D the largest check degree, and the checks are taken in order of
falling degree. A check of degree d < D leaves slots d..D-1 empty; these
filler columns form the tail of each slot. Every message is carried at
half scale (half the LLR), which saves the x0.5 and x2 passes of each
iteration and moves no sign, zero or bit, since halving is exact. One
check-node kernel is the tanh product rule: tanh of the clamped message,
fillers set to exactly 1.0, and each edge's reply the artanh of its prefix
product times its suffix product over the check's other edges. The
variable update gathers each variable's j-th edge ("slot" j) and sums the
slots in the order ``np.add.reduceat`` would. The syndrome is an XOR over
the slots of the hard bits gathered into the same layout. ``decode_bp``
allocates its work arrays once per call and runs every step in place on
them; converged frames leave the batch, and the rows still running move
to the front.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DataFormatError

BUNDLED_CODE_NAME = "peg_dv3_n1992_r34.alist"

# Clamp of the half-scale messages (36 on the LLR scale): tanh(18) stays
# strictly below 1 in float64, so only a filler's tanh is exactly 1.
_HALF_CLAMP = 18.0
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
        self.check_deg = np.array([len(a) for a in cl], dtype=np.int64)
        self.edge_var = np.concatenate(cl)
        self.var_deg = np.bincount(self.edge_var, minlength=self.n)
        if np.any(self.var_deg == 0):
            bad = int(np.argmin(self.var_deg))
            raise ValueError(f"variable {bad} participates in no check")
        # slot-major check layout: column j*C + i holds the j-th edge of the
        # i-th check by falling degree, so the fillers of slot j are its
        # columns from live = (number of checks of degree > j) on
        C, D = self.num_checks, int(self.check_deg.max())
        rank = np.empty(C, dtype=np.int64)
        rank[np.argsort(-self.check_deg, kind="stable")] = np.arange(C)
        check_start = np.cumsum(self.check_deg) - self.check_deg
        edge_slot = np.arange(self.edge_var.size) - np.repeat(check_start, self.check_deg)
        col_of_edge = edge_slot * C + np.repeat(rank, self.check_deg)
        self.col_var = np.zeros(D * C, dtype=np.int64)  # fillers read variable 0
        self.col_var[col_of_edge] = self.edge_var
        live = (self.check_deg > np.arange(D)[:, None]).sum(axis=1)
        self.filler_slots = [(j, int(k)) for j, k in enumerate(live) if k < C]
        # slot j of a variable is its j-th edge in check order; slots[j] holds
        # the layout columns of those edges and their variables, for the
        # variables of degree > j
        var_major = np.argsort(self.edge_var, kind="stable")
        var_start = np.cumsum(self.var_deg) - self.var_deg
        slot_of = np.arange(self.edge_var.size) - np.repeat(var_start, self.var_deg)
        self.slots = []
        for j in range(int(self.var_deg.max())):
            edges = var_major[slot_of == j]
            self.slots.append((col_of_edge[edges], self.edge_var[edges]))
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


def _fill(a: np.ndarray, value, code: ParityCheckCode) -> None:
    """Set the filler columns of a slot-major (b, D, C) array to ``value``."""
    for j, live in code.filler_slots:
        a[:, j, live:] = value


def _check_update(q, r, code: ParityCheckCode) -> None:
    """Sum-product check-node update on slot-major (b, D*C) half-scale messages.

    Writes into ``r`` what each check sends back along each edge, at half
    scale: the artanh of the product of tanh(q) over the check's other
    edges, taken as the edge's prefix product (1.0 at slot 0, then slot by
    slot from the left) times its suffix product (slot by slot from the
    right). Fillers enter as tanh exactly 1.0, so they change no product.
    ``q`` is overwritten: each slot j >= 1 ends up holding the product of
    the tanh values of slots j..D-1.
    """
    b = q.shape[0]
    np.clip(q, -_HALF_CLAMP, _HALF_CLAMP, out=q)
    np.tanh(q, out=q)
    t, r3 = q.reshape(b, -1, code.num_checks), r.reshape(b, -1, code.num_checks)
    _fill(t, 1.0, code)
    r3[:, 0] = 1.0
    for j in range(1, t.shape[1]):
        np.multiply(r3[:, j - 1], t[:, j - 1], out=r3[:, j])
    for j in range(t.shape[1] - 2, 0, -1):
        np.multiply(t[:, j], t[:, j + 1], out=t[:, j])
    np.multiply(r3[:, :-1], t[:, 1:], out=r3[:, :-1])
    np.clip(r, -_TANH_CLIP, _TANH_CLIP, out=r)
    np.arctanh(r, out=r)


def decode_bp(code: ParityCheckCode, llrs: np.ndarray, max_iters: int = 50):
    """Flooding-schedule sum-product decoding with syndrome early exit.

    Accepts (n,) or (batch, n) LLRs; returns (bits, converged, iterations)
    with matching batch shape. Frames whose hard decision satisfies all
    checks stop updating; their returned word is the satisfying codeword.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    single = np.ndim(llrs) == 1
    Lch = np.array(llrs, dtype=np.float64, order="C", ndmin=2)
    if Lch.shape[1] != code.n:
        raise ValueError(f"expected {code.n} LLRs per frame, got {Lch.shape[1]}")
    B, n = Lch.shape
    L, C = code.col_var.size, code.num_checks

    out_bits = np.zeros((B, n), dtype=np.uint8)
    out_conv = np.zeros(B, dtype=bool)
    out_iters = np.full(B, max_iters, dtype=np.int64)

    # Every work array is allocated here; iteration views take the first b
    # rows, the frames still running, which stay contiguous.
    Lq, Lr = np.empty((2, B, L))
    col_bits = np.empty((B, L), dtype=np.uint8)
    parity = np.empty((B, C), dtype=np.uint8)
    post, rest = np.empty((2, B, n))
    slot_buf, part_buf = np.empty((2, B * n))
    hard, nonzero = np.empty((2, B, n), dtype=bool)

    live = np.arange(B)          # original frame index of each running row
    b = B
    np.multiply(Lch, 0.5, out=Lch)  # every message from here on is at half scale
    np.take(Lch, code.col_var, axis=1, out=Lq, mode="clip")
    for it in range(1, max_iters + 1):
        q, r, p, s = Lq[:b], Lr[:b], post[:b], rest[:b]
        _check_update(q, r, code)

        # variable-node update: post = Lch + (slot 0 + (slot 1 + slot 2 + ...)),
        # the order np.add.reduceat sums up to 8 edges per variable. -0.0
        # starts the inner sum because x + -0.0 == x for every x.
        s.fill(-0.0)
        for cols, vs in code.slots[1:]:
            k = vs.size
            slot = slot_buf[:b * k].reshape(b, k)
            np.take(r, cols, axis=1, out=slot, mode="clip")
            if k == n:
                np.add(s, slot, out=s)
            else:  # only the variables of degree > j have a slot j
                part = part_buf[:b * k].reshape(b, k)
                np.take(s, vs, axis=1, out=part, mode="clip")
                np.add(part, slot, out=part)
                s[:, vs] = part
        np.take(r, code.slots[0][0], axis=1, out=p, mode="clip")
        np.add(p, s, out=p)
        np.add(Lch[:b], p, out=p)
        np.take(p, code.col_var, axis=1, out=q, mode="clip")
        np.subtract(q, r, out=q)

        # converged = zero syndrome with every bit strictly decided; an
        # all-zero input would otherwise "converge" on the zero word.
        h, g, sp = hard[:b], col_bits[:b], parity[:b]
        np.less(p, 0.0, out=h)
        np.take(h.view(np.uint8), code.col_var, axis=1, out=g, mode="clip")
        g = g.reshape(b, -1, C)
        _fill(g, 0, code)
        np.bitwise_xor.reduce(g, axis=1, out=sp)
        np.not_equal(p, 0.0, out=nonzero[:b])
        ok = ~sp.any(axis=1) & nonzero[:b].all(axis=1)
        if it < max_iters and not ok.any():
            continue
        out_bits[live] = h
        out_conv[live] = ok
        out_iters[live[ok]] = it
        keep = np.flatnonzero(~ok)
        if keep.size == 0 or it == max_iters:
            break
        # move the running rows to the front; Lr and post are rebuilt from
        # Lq and Lch before they are read again, so they take the moved rows
        np.take(q, keep, axis=0, out=Lr[:keep.size], mode="clip")
        np.take(Lch[:b], keep, axis=0, out=post[:keep.size], mode="clip")
        Lq, Lr, Lch, post = Lr, Lq, post, Lch
        live, b = live[keep], keep.size

    if single:
        return out_bits[0], bool(out_conv[0]), int(out_iters[0])
    return out_bits, out_conv, out_iters


def interleaver_permutation(n: int, seed: int) -> np.ndarray:
    """The seeded pseudo-random permutation of ``n`` bit positions."""
    return np.random.default_rng(seed).permutation(n)


def interleave(values: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Permute the last axis: position i takes entry ``perm[i]``."""
    return np.asarray(values)[..., perm]


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
    """The packaged rate-3/4 code.

    n = 1992 fills whole symbols of m = 4, 6, 8 and 12 bits (M = 16, 64, 256
    and 4096), but not of 10 bits, so M = 1024 cannot carry it.
    """
    ref = resources.files("qcilink.codes").joinpath(BUNDLED_CODE_NAME)
    with resources.as_file(ref) as p:
        return load_alist(p)
