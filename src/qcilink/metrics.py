"""Sweep records, GMI scoring, horizontal curve gaps, and remap diagnostics.

GMI here is the bit-metric achievable rate of the chosen (possibly
mismatched) demapper: m minus the per-bit mean of log2(1 + exp(-(1-2b)*LLR)),
the BICM rate of Caire, Taricco and Biglieri (IEEE Trans. IT, 1998). Each bit
loss is computed as the softplus max(x, 0) + log1p(exp(-|x|)) of
x = -(1-2b)*LLR: the same branches as ``np.logaddexp(0, x)``, but numpy runs
``exp`` and ``log1p`` as vector loops and ``logaddexp`` one element at a time,
so only the rounding of those two functions differs. Horizontal gaps
between two metric-vs-PSNR curves are measured by linear interpolation at a
common target value, which is how the shaping gain and the detection losses
are quantified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .demapper import AffineCompensation, DemapContext, cluster_centers, column_block, demap

_LN2 = math.log(2.0)

GMI_MIN_SAMPLES = 100_000
# target symbols per scoring chunk: its (m, chunk) LLR and loss buffers stay in L2 cache
_CHUNK_SYMBOLS = 16_384


@dataclass(frozen=True)
class SweepRecord:
    """One (PSNR, metric) measurement row."""

    psnr_db: float
    metric: str  # "ber" | "fer" | "gmi" | "evals_per_symbol"
    value: float
    stderr: float
    trials: int
    constellation: str
    demapper: str
    seed: int

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if self.metric in ("ber", "fer") and not 0.0 <= self.value <= 1.0:
            raise ValueError(f"{self.metric} must lie in [0, 1]")


class Tally(NamedTuple):
    """The Monte Carlo counts of one block; blocks merge by summing field by field."""

    trials: int  # independent trials
    errors: int  # the count an error target stops on
    s1: float    # sum of one sample per trial
    s2: float    # sum of the squared samples


def tally_record(psnr_db: float, metric: str, tally: Tally, constellation: str, demapper: str, seed: int,
                 per: int = 1) -> SweepRecord:
    """A row of merged block counts: the sample mean per unit and its standard error.

    A trial covers ``per`` units (the k info bits of a coded frame). A 0/1
    sample gives the binomial standard error; below two trials it is infinite.
    """
    n = tally.trials
    mean = tally.s1 / n
    stderr = math.sqrt(max(tally.s2 / n - mean ** 2, 0.0) / n) / per if n >= 2 else float("inf")
    return SweepRecord(psnr_db, metric, tally.s1 / (n * per), stderr, n * per, constellation, demapper, seed)


def gmi_symbol_scores(
    ctx: DemapContext,
    kind: str,
    n0: float,
    num: int,
    rng: np.random.Generator,
    comp: AffineCompensation | None = None,
) -> np.ndarray:
    """Per-symbol achievable-rate samples for one Monte Carlo block.

    All ``num`` point indices are drawn first; then the noise is drawn, and
    the symbols demapped and scored, one chunk of about 16k symbols at a
    time, into the block's (num,) scores. Every (m, chunk) buffer stays in
    L2 cache, and the noise is the same stream as one draw of ``num``
    symbols. A chunk is a whole number of the column blocks of the kind's
    kernel (``demapper.column_block``), which blocks a chunked block as it
    would an unchunked one, so the scores do not depend on the chunk size.

    Bit-major: the bit loss of x = -(1 - 2b)·L is the softplus
    max(x, 0) + log1p(exp(-|x|)) (see the module docstring). Since
    |x| = |L|, the demapper's (m, chunk) LLR array becomes the log1p term in
    place, and one (m, chunk) buffer of the sign products becomes the max
    term, so scoring adds a single buffer to the LLRs. Each bit is one
    contiguous row, and the rows are summed in bit order.
    """
    step = column_block(kind, ctx)
    chunk = step * max(1, _CHUNK_SYMBOLS // step)
    signs = 2.0 * ctx.constellation.labels.T - 1.0  # (m, M)
    scores = np.empty(num)
    for a, (idx, y) in zip(range(0, num, chunk), ctx.draw_chunks(num, n0, rng, chunk)):
        llr = demap(kind, y, ctx, n0, comp=comp).values.T
        loss = np.take(signs, idx, axis=1)
        loss *= llr
        np.abs(llr, out=llr)
        np.negative(llr, out=llr)
        np.exp(llr, out=llr)
        np.log1p(llr, out=llr)
        np.maximum(loss, 0.0, out=loss)
        loss += llr
        loss /= _LN2
        scores[a:a + len(idx)] = ctx.m - loss.sum(axis=0)
        del llr, loss  # free before the next chunk is drawn and demapped
    return scores


def horizontal_gap(curve_a, curve_b, target: float) -> float:
    """PSNR(curve_a) - PSNR(curve_b) at a common metric value, in dB.

    Curves are sequences of (psnr_db, value) pairs (or SweepRecords). Each
    curve must meet the target exactly once, at a grid point or by a sign
    change between two, where linear interpolation locates the crossing.
    """
    return _crossing_psnr(curve_a, target) - _crossing_psnr(curve_b, target)


def _as_xy(curve) -> np.ndarray:
    pts = []
    for item in curve:
        if isinstance(item, SweepRecord):
            pts.append((item.psnr_db, item.value))
        else:
            x, y = item
            pts.append((float(x), float(y)))
    arr = np.array(sorted(pts))
    if arr.shape[0] < 2:
        raise ValueError("need at least two curve points")
    return arr


def _crossing_psnr(curve, target: float) -> float:
    arr = _as_xy(curve)
    x, v = arr[:, 0], arr[:, 1]
    s = v - target
    hits = np.nonzero(s == 0.0)[0]
    cross = np.nonzero(s[:-1] * s[1:] < 0.0)[0]
    if cross.size + hits.size == 0:
        raise ValueError(f"target {target} outside the curve's range [{v.min()}, {v.max()}]")
    if cross.size + hits.size > 1:
        raise ValueError("curve is not monotone around the target; crossing is ambiguous")
    if hits.size:
        return float(x[hits[0]])
    i = int(cross[0])
    frac = (target - v[i]) / (v[i + 1] - v[i])
    return float(x[i] + frac * (x[i + 1] - x[i]))


@dataclass(frozen=True)
class ScatterDump:
    """Raw remap diagnostics: per-symbol rows plus per-point cluster centers.

    Channel coordinates throughout; ``qam_ref`` is the square-grid preimage
    of each transmitted symbol and ``remapped`` the inverse-mapped received
    point.
    """

    point_index: np.ndarray  # (N,)
    qam_ref: np.ndarray      # (N, 2)
    remapped: np.ndarray     # (N, 2)
    centers: np.ndarray      # (M, 2) mean remapped point per constellation point
    counts: np.ndarray       # (M,)


def scatter_dump(
    ctx: DemapContext,
    n0: float,
    samples: int,
    rng: np.random.Generator,
) -> ScatterDump:
    """Sample the inverse-map output cloud and its per-point centers.

    ``harness.run`` in scatter mode writes the dump to CSV files.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    idx, y = ctx.draw(samples, n0, rng)
    z = ctx.unmap(y)
    return ScatterDump(idx, np.take(ctx.qam_grid.points, idx, axis=0), z, *cluster_centers(idx, z, ctx.M))
