"""Sweep records, GMI scoring, horizontal curve gaps, and remap diagnostics.

GMI here is the bit-metric achievable rate of the chosen (possibly
mismatched) demapper: m minus the per-bit mean of log2(1 + exp(-(1-2b)*LLR)).
Horizontal gaps between two metric-vs-PSNR curves are measured by linear
interpolation at a common target value, which is how the shaping gain and
the detection losses are quantified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .demapper import AffineCompensation, DemapContext, cluster_centers, demap

_LN2 = math.log(2.0)

GMI_MIN_SAMPLES = 100_000


@dataclass(frozen=True)
class SweepRecord:
    """One (PSNR, metric) measurement row."""

    psnr_db: float
    metric: str  # "ber" | "fer" | "gmi" | "evals_per_symbol"
    value: float
    stderr: float
    trials: int
    errors: int
    constellation: str
    demapper: str
    seed: int

    def __post_init__(self):
        if self.trials < 0 or self.errors < 0:
            raise ValueError("counters must be nonnegative")
        if self.metric in ("ber", "fer") and not 0.0 <= self.value <= 1.0:
            raise ValueError(f"{self.metric} must lie in [0, 1]")


def counted_record(psnr_db: float, metric: str, errors: int, trials: int,
                   constellation: str, demapper: str, seed: int) -> SweepRecord:
    """A ber/fer row: the error rate with its binomial standard error."""
    p = errors / trials
    stderr = math.sqrt(max(p * (1 - p), 0.0) / trials)
    return SweepRecord(psnr_db, metric, p, stderr, trials, errors, constellation, demapper, seed)


def mean_record(psnr_db: float, metric: str, n: int, s1: float, s2: float,
                constellation: str, demapper: str, seed: int) -> SweepRecord:
    """A sample-mean row (gmi) from the count, sum and sum of squares of the samples.

    The standard error is infinite for fewer than two samples.
    """
    mean = s1 / n
    stderr = math.sqrt(max(s2 / n - mean ** 2, 0.0) / n) if n >= 2 else float("inf")
    return SweepRecord(psnr_db, metric, mean, stderr, n, 0, constellation, demapper, seed)


def gmi_symbol_scores(
    ctx: DemapContext,
    kind: str,
    n0: float,
    num: int,
    rng: np.random.Generator,
    comp: AffineCompensation | None = None,
) -> np.ndarray:
    """Per-symbol achievable-rate samples for one Monte Carlo block.

    Bit-major: one (m, num) buffer of the signs -(1 - 2b) becomes the bit
    losses in place, one contiguous row per bit, summed row by row.
    """
    idx, y = ctx.draw(num, n0, rng)
    loss = np.take(2.0 * ctx.constellation.labels.T - 1.0, idx, axis=1)
    loss *= demap(kind, y, ctx, n0, comp=comp).values.T
    np.logaddexp(0.0, loss, out=loss)
    loss /= _LN2
    return ctx.m - loss.sum(axis=0)


def horizontal_gap(curve_a, curve_b, target: float) -> float:
    """PSNR(curve_a) - PSNR(curve_b) at a common metric value, in dB.

    Curves are sequences of (psnr_db, value) pairs (or SweepRecords). Each
    curve must cross the target exactly once between grid points; the
    crossing is located by linear interpolation.
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
    if hits.size == 1:
        return float(x[hits[0]])
    cross = np.nonzero(s[:-1] * s[1:] < 0.0)[0]
    if cross.size + hits.size == 0:
        raise ValueError(f"target {target} outside the curve's range [{v.min()}, {v.max()}]")
    if cross.size + (hits.size > 0) > 1:
        raise ValueError("curve is not monotone around the target; crossing is ambiguous")
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
    return ScatterDump(idx, ctx.qam_grid.points[idx], z, *cluster_centers(idx, z, ctx.M))
