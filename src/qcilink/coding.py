"""LDPC outer code: alist loading, systematic encoding, and sum-product decoding.

The decoder is a flooding-schedule sum-product implementation by the tanh
product rule, vectorized over both edges and frames. LLR sign convention
matches the demappers: positive means bit 0. A code derives its encoder
from the parity-check matrix by GF(2) row reduction when it is built, so
a rank-deficient matrix is rejected at load time; pivot columns become
parity positions, the remaining columns carry the information bits. Each
parity bit is a GF(2) inner product, computed on bits packed into uint64
words: AND, XOR-accumulate over the words, then popcount parity.

Messages live in an edge-major, slot-major check layout: row j*C + i of a
(D*C, frames) array holds the j-th edge of the i-th check for every frame,
where C is the number of checks, D the largest check degree, and the
checks are taken in order of falling degree. A check of degree d < D
leaves slots d..D-1 empty; these filler rows form the tail of each slot.
The variables are taken in order of falling degree too (``var_order``, a
stable sort), so the k_j variables that have a j-th edge come first. The
frames run innermost, so each slot is one contiguous (C, frames) slab and
every gather over edges or variables copies whole rows of frames; each
block of input LLRs is transposed and put in ``var_order`` once, when its
first frame enters the batch, and the hard bits go back to code order
once on return (neither step runs when ``var_order`` is the identity, as
for a regular code). Every
message is a float32 carried at half scale (half the LLR), which saves
the x0.5 and x2 passes of each iteration and moves no sign, zero or bit,
since halving is exact; float32 tanh and artanh cost a quarter and a
third of the float64 ones. Finite input LLRs beyond the float32 range are
clipped to it. One check-node kernel is the tanh product rule: tanh of
the clamped message, fillers set to exactly 1.0, and each edge's reply
the artanh of its prefix product times its suffix product over the
check's other edges, slab by slab. The elementwise passes stop at the
last slot's trailing fillers, which only the products read. The variable
update adds the j-th edges ("slot" j) into the sums of the first k_j
variables, one slot at a time, in the order ``np.add.reduceat`` would.
The syndrome is an XOR over the slots of the hard bits of the
posteriors, read from the posteriors already gathered into the edge
layout for the next check update.
``decode_bp`` runs every step in place on work arrays made for the width
of the running batch, at most ``BP_BATCH_FRAMES`` frames. Each frame
counts its own iterations. When a frame converges or reaches
``max_iters``, its hard bits are taken and the next frame of the input
takes over its column, with its channel LLRs and its first messages
written in, so the batch keeps its width while frames remain. Each
frame's arithmetic runs in its own column, so a frame decodes to the
same bits in any batch. Only once the input has run dry do frames leave
the batch: the messages and channel LLRs of the frames still running are
then taken into new (rows, frames still running) arrays, and the work
arrays are made anew at that width. A NaN input LLR is rejected, since
it would read as a decided bit.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache, partial
from importlib import resources
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import DataFormatError

BUNDLED_CODE_NAME = "peg_dv3_n1992_r34.alist"

# Frames the decoder keeps running. A column whose frame has converged or
# reached max_iters takes the next frame of the input, so the batch stays
# this wide until the input runs dry. On the bundled code at full width a
# frame-iteration cost 21.1 us at 25 frames, 22.0 at 50, 23.5 at 100 and
# 25.6 at 200, while an iteration carries about 69 us of fixed cost.
BP_BATCH_FRAMES = 25

# Saturation of the float32 half-scale messages. float32 tanh rounds to
# exactly 1.0 from about 9.999 on, and tanh(9) is 1 - 2**-24, the largest
# float32 below 1. Clamping the messages at 9 (18 on the LLR scale) thus
# keeps every real edge's tanh strictly below 1 with its sign, so only a
# filler's tanh is exactly 1.0; a clamp at 10 or above would map every
# strong message to exactly 1.0, as if it were a filler. Each check's
# leave-one-out product is clipped at 1 - 2**-23 before the artanh, which is
# finite there (8.3178, so replies cap near 16.6 on the LLR scale) where
# artanh(1.0) is inf: the clip catches the empty product of a degree-1
# check and products of clamped edges. A posterior adds at most a variable's
# degree of such replies to its channel LLR, so no message can overflow.
_HALF_CLAMP = np.float32(9.0)
_TANH_CLIP = np.float32(1.0 - 2.0 ** -23)
_FLOAT32_MAX = float(np.finfo(np.float32).max)


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
        # slot-major check layout: row j*C + i holds the j-th edge of the
        # i-th check by falling degree, so the fillers of slot j are its
        # rows from live = (number of checks of degree > j) on, and the rows
        # from edge_end on are the last slot's trailing fillers. The
        # variables are taken by falling degree too: col_var maps each row
        # to its variable's place in var_order (fillers read place 0), and
        # var_slots[j] holds the rows of the j-th edges, in check order, of
        # the first k_j variables, those of degree > j. reorder_vars is
        # False when var_order is the identity, as for every regular code
        C, D = self.num_checks, int(self.check_deg.max())
        _, check_rank, check_slot = _degree_order(np.repeat(np.arange(C), self.check_deg), self.check_deg)
        row = check_slot * C + check_rank
        self.filler_slots = [(j, int(k)) for j, k in enumerate(np.bincount(check_slot)) if k < C]
        self.edge_end = int(row.max()) + 1
        self.var_order, var_rank, var_slot = _degree_order(self.edge_var, self.var_deg)
        self.reorder_vars = bool(np.any(self.var_order != np.arange(self.n)))
        self.col_var = np.zeros(D * C, dtype=np.int64)
        self.col_var[row] = var_rank
        self.var_slots = np.split(row[np.lexsort((var_rank, var_slot))], np.cumsum(np.bincount(var_slot))[:-1])
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


def _degree_order(node_of_edge: np.ndarray, deg: np.ndarray):
    """Nodes by falling degree (stable sort); per edge, its node's rank there and its index among the node's edges."""
    order = np.argsort(-deg, kind="stable")
    by_node = np.argsort(node_of_edge, kind="stable")
    slot = np.empty_like(by_node)
    slot[by_node] = np.arange(by_node.size) - np.repeat(np.cumsum(deg) - deg, deg)
    return order, np.argsort(order)[node_of_edge], slot


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
    """Set the filler rows of an edge-major (D, C, b) array to ``value``."""
    for j, live in code.filler_slots:
        a[j, live:] = value


def _check_update(q, r, code: ParityCheckCode) -> None:
    """Sum-product check-node update on edge-major (D*C, b) float32 half-scale messages.

    Writes into ``r`` what each check sends back along each edge, at half
    scale: the artanh of the product of tanh(q) over the check's other
    edges, taken as the edge's prefix product (1.0 at slot 0, then slot by
    slot from the left) times its suffix product (slot by slot from the
    right). Fillers enter as tanh exactly 1.0, so they change no product.
    ``q`` is overwritten: each slot j >= 1 ends up holding the product of
    the tanh values of slots j..D-1. The rows from ``code.edge_end`` on,
    the last slot's trailing fillers, skip the clips and maps: ``_fill``
    sets their tanh, and their replies, left as products, are never read.
    """
    b = q.shape[1]
    qe, rep = q[:code.edge_end], r[:code.edge_end]
    np.clip(qe, -_HALF_CLAMP, _HALF_CLAMP, out=qe)
    np.tanh(qe, out=qe)
    t, r3 = q.reshape(-1, code.num_checks, b), r.reshape(-1, code.num_checks, b)
    _fill(t, 1.0, code)
    r3[0] = 1.0
    for j in range(1, t.shape[0]):
        np.multiply(r3[j - 1], t[j - 1], out=r3[j])
    for j in range(t.shape[0] - 2, 0, -1):
        np.multiply(t[j], t[j + 1], out=t[j])
    np.multiply(r3[:-1], t[1:], out=r3[:-1])
    np.clip(rep, -_TANH_CLIP, _TANH_CLIP, out=rep)
    np.arctanh(rep, out=rep)


def _channel_llrs(code: ParityCheckCode, llrs) -> np.ndarray:
    """The (n, b) float32 half-scale channel LLRs, variables in ``var_order``, of (b, n) or (n,) LLRs.

    Clipped in float64 on the way to float32, so no finite LLR overflows
    the cast. A NaN LLR raises ValueError.
    """
    x = np.array(llrs, dtype=np.float64, copy=None, ndmin=2)
    if x.shape[1] != code.n:
        raise ValueError(f"expected {code.n} LLRs per frame, got {x.shape[1]}")
    Lch = np.empty((code.n, len(x)), dtype=np.float32)
    np.clip(x.T, -_FLOAT32_MAX, _FLOAT32_MAX, out=Lch)
    if np.isnan(Lch).any():
        raise ValueError("LLRs must not be NaN")
    if code.reorder_vars:
        Lch = np.take(Lch, code.var_order, axis=0, mode="clip")
    np.multiply(Lch, 0.5, out=Lch)  # every message from here on is at half scale
    return Lch


def _stream_frames(code: ParityCheckCode, blocks):
    """Each frame of an iterator of LLR blocks, as its (n,) column of ``_channel_llrs``.

    A block is read when its first frame is asked for, and only its
    float32 channel LLRs are kept while its frames are handed out.
    """
    for Lch in map(partial(_channel_llrs, code), blocks):
        yield from Lch.T


def decode_bp(code: ParityCheckCode, llrs, max_iters: int = 50):
    """Flooding-schedule sum-product decoding with syndrome early exit.

    Accepts (n,) or (batch, n) LLRs, or an iterator (a generator, say) of
    (b, n) blocks, of which the next is read only when the running batch
    has a free column for its first frame. Returns (bits, converged,
    iterations) per frame in input order: of one frame for (n,) LLRs,
    else (frames, n), (frames,) and (frames,) arrays. Frames whose hard
    decision satisfies all checks stop updating; their returned word is
    the satisfying codeword. A NaN LLR raises ValueError; +-inf is a
    certain bit.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    stream = isinstance(llrs, Iterator)
    single = not stream and np.ndim(llrs) == 1
    frames = enumerate(_stream_frames(code, llrs if stream else iter([llrs])))
    n, L, C, E = code.n, code.col_var.size, code.num_checks, code.edge_end

    # the running batch: each column's stream index, the iteration after
    # which its frame came in, and its channel LLRs; cap is the iteration
    # at which the oldest running frame reaches max_iters
    batch = list(islice(frames, BP_BATCH_FRAMES))
    if not batch:
        raise ValueError("no frames to decode")
    live, cols = zip(*batch)
    live, born, Lch = np.array(live), np.zeros(len(live), dtype=np.int64), np.stack(cols, axis=1)
    q = np.take(Lch, code.col_var, axis=0, mode="clip")
    cap = max_iters
    # slot 1 and the later slots of the variable update (a code whose
    # variables all have degree 1 has no slot 1)
    slot1, *later = code.var_slots[1:] or [code.var_slots[0][:0]]
    done = []  # (stream indices, packed hard bits in var_order, converged, iterations) of the frames that left
    b = it = 0
    while live.size:
        it += 1
        if b != live.size:  # the first iteration, or frames left the batch
            b = live.size
            r, g = np.empty((L, b), dtype=np.float32), np.empty((L, b), dtype=bool)
            p, s, slot = (np.empty((n, b), dtype=np.float32) for _ in range(3))
            sp = np.empty((C, b), dtype=bool)
        _check_update(q, r, code)

        # variable-node update: post = Lch + (slot 0 + (slot 1 + slot 2 + ...)),
        # the order np.add.reduceat sums up to 8 edges per variable. The
        # variables that have a slot j are the first k_j, those of degree > j.
        # Slot 1 is gathered straight into the inner sum, which is -0.0 for
        # the variables without one, because -0.0 + x == x for every x.
        np.take(r, slot1, axis=0, out=s[:slot1.size], mode="clip")
        s[slot1.size:] = -0.0
        for rows in later:
            k = rows.size
            np.take(r, rows, axis=0, out=slot[:k], mode="clip")
            np.add(s[:k], slot[:k], out=s[:k])
        np.take(r, code.var_slots[0], axis=0, out=p, mode="clip")
        np.add(p, s, out=p)
        np.add(Lch, p, out=p)
        np.take(p, code.col_var, axis=0, out=q, mode="clip")

        # converged = zero syndrome with every bit strictly decided; an
        # all-zero input would otherwise "converge" on the zero word. Each
        # edge's hard bit is read from the posterior just gathered into q,
        # and only frames of zero syndrome need their posteriors checked.
        np.less(q, 0.0, out=g)
        np.subtract(q[:E], r[:E], out=q[:E])
        g3 = g.reshape(-1, C, b)
        _fill(g3, False, code)
        np.bitwise_xor.reduce(g3, axis=0, out=sp)
        ok = ~sp.any(axis=0)
        if ok.any():
            ok &= (p != 0.0).all(axis=0)
        if it < cap and not ok.any():
            continue
        out = np.flatnonzero(ok | (born == it - max_iters))
        done.append((live[out], np.packbits((p[:, out] < 0.0).T, axis=1), ok[out], it - born[out]))
        # only q and Lch carry state into the next iteration: the work arrays
        # go before the next frames are read, so that a block drawn for them
        # reuses their memory, and are made anew, at the new width if the
        # batch narrows
        del r, g, p, s, slot, sp
        b = 0
        # the next frames of the stream take the columns of those that left,
        # in the state a frame starts from: its channel LLRs as messages on
        # the real edges (the check update sets every filler row itself)
        new = list(islice(frames, out.size))
        for c, (i, x) in zip(out, new):
            live[c], born[c], Lch[:, c] = i, it, x
            q[:E, c] = np.take(x, code.col_var[:E], mode="clip")
        if len(new) < out.size:  # the stream ran dry: the other frames leave the batch
            keep = np.delete(np.arange(live.size), out[len(new):])
            q, Lch = np.take(q, keep, axis=1, mode="clip"), np.take(Lch, keep, axis=1, mode="clip")
            live, born = live[keep], born[keep]
        cap = born.min(initial=it) + max_iters

    idx, hard, conv, iters = (np.concatenate(part) for part in zip(*done))
    order = np.argsort(idx)
    bits, conv, iters = np.unpackbits(hard[order], axis=1, count=n), conv[order], iters[order]
    if code.reorder_vars:
        bits[:, code.var_order] = bits.copy()  # back to code order
    if single:
        return bits[0], bool(conv[0]), int(iters[0])
    return bits, conv, iters


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
