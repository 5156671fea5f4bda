"""Independent brute-force reference implementations used as test oracles.

These deliberately avoid the package's vectorized code paths: plain Python
loops over the likelihood-ratio definition, with math.fsum for the sums.
The +-60 output clamp is part of the demapper contract and is reproduced
here so comparisons stay meaningful near saturation. ``maxlog_gather_2d``
is the exception: a byte-level reference for the order of the max-log
reductions, it shares the package's exponent blocks.
"""

import math
from decimal import Decimal, localcontext

import numpy as np

from qcilink.demapper import _exponent_blocks

LLR_CLAMP = 60.0
# the decoder's float32 clamp of a half-scale message and bound on a check-node product
HALF_CLAMP = np.float32(9.0)
TANH_CLIP = np.float32(1.0 - 2.0 ** -23)


def _log(s):
    return math.log(s) if s > 0.0 else -math.inf


def _log_sum_ratios(d2, labels, n0):
    """Per-bit log(sum of exp(-d/n0) over bit-0 points / the same over bit-1 points), clamped.

    Every term is scaled by exp(min(d2)/n0), which cancels in the ratio and
    keeps the nearest point's term at 1 however small n0 is; a subset whose
    terms all underflow gives an infinite LLR, which the clamp folds.
    """
    dmin = min(d2)
    out = []
    for i in range(len(labels[0])):
        num, den = [], []
        for d, lab in zip(d2, labels):
            (num if lab[i] == 0 else den).append(math.exp(-(d - dmin) / n0))
        llr = _log(math.fsum(num)) - _log(math.fsum(den))
        out.append(max(-LLR_CLAMP, min(LLR_CLAMP, llr)))
    return out


def brute_force_llr_2d(y, points, labels, n0):
    """Direct double-loop evaluation of the per-bit log-likelihood ratio."""
    return _log_sum_ratios([(y[0] - u) ** 2 + (y[1] - v) ** 2 for u, v in points], labels, n0)


def brute_force_maxlog_2d(y, points, labels, n0):
    """Max-log LLR: nearest bit-1 point minus nearest bit-0 point, by direct loops."""
    m = len(labels[0])
    out = []
    for i in range(m):
        d0, d1 = [], []
        for (u, v), lab in zip(points, labels):
            d = (y[0] - u) ** 2 + (y[1] - v) ** 2
            (d0 if lab[i] == 0 else d1).append(d)
        llr = (min(d1) - min(d0)) / n0
        out.append(max(-LLR_CLAMP, min(LLR_CLAMP, llr)))
    return out


def brute_force_llr_pam(y, levels, labels, n0):
    """One-dimensional counterpart with the per-axis exponent (y-x)^2/n0."""
    return _log_sum_ratios([(y - x) ** 2 for x in levels], labels, n0)


def radial_factor(u, v, forward):
    """The radial map's factor at (u, v), (sqrt(2)*max(|u|,|v|)/hypot(u, v))^(+-1), correctly rounded.

    Evaluated in 40-digit decimal arithmetic from the exact binary values of
    u and v, so the only float64 rounding is the final one. The origin's
    factor is taken as 1; it multiplies zeros.
    """
    with localcontext() as dec:
        dec.prec = 40
        mx = max(abs(Decimal(u)), abs(Decimal(v)))
        if mx == 0:
            return 1.0
        ratio = (Decimal(u) ** 2 + Decimal(v) ** 2).sqrt() / (Decimal(2).sqrt() * mx)
        return float(1 / ratio if forward else ratio)


def logaddexp_gmi_scores(values, bits, m):
    """Per-symbol GMI samples m - sum_i log2(1 + exp(-(1-2b_i)·L_i)) through ``np.logaddexp``.

    ``values`` and ``bits`` are (N, m): the LLRs and the sent label bits of
    each symbol. This is the scoring form before the softplus rewrite.
    """
    signs = 1.0 - 2.0 * bits.astype(np.float64)
    return m - np.sum(np.logaddexp(0.0, -signs * values) / math.log(2.0), axis=1)


def add_at_cluster_centers(idx, z, M):
    """Per-point means of the 2D samples ``z`` summed by unbuffered ``np.add.at``, plus the counts.

    ``np.add.at`` adds the samples one at a time in index order. Points
    never drawn get a NaN center and a count of 0.
    """
    sums = np.zeros((M, 2))
    np.add.at(sums, idx, z)
    counts = np.bincount(idx, minlength=M)
    with np.errstate(invalid="ignore"):
        return sums / counts[:, None], counts


def mean_symbol_power(points):
    """Average |x|^2 by direct summation."""
    total = 0.0
    for p in points:
        try:
            total += sum(c * c for c in p)
        except TypeError:
            total += p * p
    return total / len(points)


def nearest_neighbor_pairs(points):
    """All (i, j) pairs where j is a nearest neighbor of i (1e-9 relative tie)."""
    pts = [tuple(p) if hasattr(p, "__len__") else (float(p),) for p in points]
    pairs = []
    for i, a in enumerate(pts):
        dists = [
            (math.dist(a, b), j) for j, b in enumerate(pts) if j != i
        ]
        dmin = min(d for d, _ in dists)
        pairs.extend((i, j) for d, j in dists if d <= dmin * (1 + 1e-9))
    return pairs


def hamming(a, b):
    return sum(int(x) != int(y) for x, y in zip(a, b))


def gray_violations_full_matrix(points, labels, rel_tol):
    """Gray violations (i, j, hamming) from the full (M, M) distance and label-difference matrices."""
    M = len(labels)
    pts = np.asarray(points).reshape(M, -1)
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = np.sum(diff ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    dmin = np.min(d2, axis=1)
    hd = np.count_nonzero(labels[:, None, :] != labels[None, :, :], axis=-1)
    violations = []
    for i in range(M):
        neighbors = np.nonzero(d2[i] <= dmin[i] * (1.0 + rel_tol) ** 2)[0]
        for j in neighbors:
            if hd[i, j] != 1:
                violations.append((int(i), int(j), int(hd[i, j])))
    return violations


def systematic_encode_int64(H_rref, pivot_cols, info_cols, info_bits):
    """Codewords by the plain int64 product: parity = (u @ P.T) & 1, P = H_rref[:, info_cols]."""
    u = np.atleast_2d(np.asarray(info_bits, dtype=np.int64))
    P = np.asarray(H_rref, dtype=np.int64)[:, info_cols]
    cw = np.zeros((u.shape[0], H_rref.shape[1]), dtype=np.int64)
    cw[:, info_cols] = u
    cw[:, pivot_cols] = (u @ P.T) & 1
    return cw


def syndrome_int64(H, bits):
    """Check parities of hard bits (..., n) by the int64 product (bits @ H.T) & 1."""
    return (np.asarray(bits, dtype=np.int64) @ np.asarray(H, dtype=np.int64).T) & 1


def deinterleave(values, perm):
    """Inverse of ``coding.interleave`` by a scatter: entry i goes back to position ``perm[i]``."""
    x = np.asarray(values)
    out = np.empty_like(x)
    out[..., perm] = x
    return out


def _reduceat_sum(terms):
    """first + (second + third + ...): numpy's np.add.reduceat order for up to 8 terms.

    From 9 terms on, numpy adds the terms after the first pairwise.
    """
    rest = np.float32(-0.0)  # x + -0.0 == x for every x, signed zeros included
    for t in terms[1:]:
        rest += t
    return terms[0] + rest


def check_replies(qs):
    """One check's half-scale float32 replies to the half-scale messages ``qs`` of its edges.

    Each message is clamped to +-HALF_CLAMP and mapped through tanh; each
    edge's reply is the artanh of its prefix product (left to right) times
    its suffix product (right to left) over the other edges, clipped to
    +-TANH_CLIP first. Every step is a numpy float32 scalar operation.
    """
    t = [np.tanh(min(max(np.float32(q), -HALF_CLAMP), HALF_CLAMP)) for q in qs]
    prefix = [np.float32(1.0)]
    for x in t[:-1]:
        prefix.append(prefix[-1] * x)
    replies = [np.float32(0.0)] * len(t)
    suffix = np.float32(1.0)
    for j in reversed(range(len(t))):
        replies[j] = np.arctanh(min(max(prefix[j] * suffix, -TANH_CLIP), TANH_CLIP))
        suffix *= t[j]
    return replies


def flooding_decode_loops(check_lists, n, llrs, max_iters):
    """One frame of flooding sum-product decoding by plain loops over checks and variables.

    The tanh product rule of ``coding.decode_bp`` in its order and
    precision: float32 messages at half scale, the same clamps, and each
    check's reply by ``check_replies``. Multiplying by 1.0 is exact, so the
    decoder's filler slots change nothing here. tanh and artanh are numpy's
    float32 functions, so the two agree bit for bit while no variable has
    more than 8 edges. Returns (bits, converged, iterations).
    """
    checks_of = [[c for c, vs in enumerate(check_lists) if v in vs] for v in range(n)]
    half = [np.float32(x) * np.float32(0.5) for x in llrs]
    q = {(c, v): half[v] for c, vs in enumerate(check_lists) for v in vs}
    for it in range(1, max_iters + 1):
        r = {}
        for c, vs in enumerate(check_lists):
            for v, reply in zip(vs, check_replies([q[c, v] for v in vs])):
                r[c, v] = reply
        post = []
        for v in range(n):
            post.append(half[v] + _reduceat_sum([r[c, v] for c in checks_of[v]]))
            for c in checks_of[v]:
                q[c, v] = post[v] - r[c, v]
        bits = [int(p < 0.0) for p in post]
        if all(p != 0.0 for p in post) and all(sum(bits[v] for v in vs) % 2 == 0 for vs in check_lists):
            return bits, True, it
    return bits, False, max_iters


def maxlog_gather_2d(y, c, n0):
    """Max-log LLRs (N, m) by two boolean row gathers per bit of each exponent block, clamped.

    The gather form of ``llr_maxlog_2d``, its byte-level reference: it
    shares the kernel's exponent blocks, and ``max`` is exact, so the two
    agree byte for byte.
    """
    ys = np.asarray(y, dtype=np.float64).reshape(-1, 2)
    out = np.empty((c.m, len(ys)))
    zeros = c.labels.T == 0  # (m, M) bit subsets
    for a, b, e in _exponent_blocks(ys, n0, c):
        for i in range(c.m):
            np.subtract(e[zeros[i]].max(axis=0), e[~zeros[i]].max(axis=0), out=out[i, a:b])
    return np.clip(out, -LLR_CLAMP, LLR_CLAMP).T
