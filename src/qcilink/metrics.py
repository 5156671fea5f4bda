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
from pathlib import Path

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


@dataclass
class MeanAccumulator:
    """Mergeable running mean/variance from (count, sum, sum of squares)."""

    n: int = 0
    s1: float = 0.0
    s2: float = 0.0

    def __add__(self, other: "MeanAccumulator") -> "MeanAccumulator":
        return MeanAccumulator(self.n + other.n, self.s1 + other.s1, self.s2 + other.s2)

    @property
    def mean(self) -> float:
        return self.s1 / self.n

    @property
    def stderr(self) -> float:
        if self.n < 2:
            return float("inf")
        var = max(self.s2 / self.n - self.mean ** 2, 0.0)
        return math.sqrt(var / self.n)


def gmi_symbol_scores(
    ctx: DemapContext,
    kind: str,
    n0: float,
    num: int,
    rng: np.random.Generator,
    comp: AffineCompensation | None = None,
) -> np.ndarray:
    """Per-symbol achievable-rate samples for one Monte Carlo block."""
    idx, y = ctx.draw(num, n0, rng)
    frame = demap(kind, y, ctx, n0, comp=comp)
    signs = 1.0 - 2.0 * ctx.constellation.labels[idx].astype(np.float64)
    loss = np.logaddexp(0.0, -signs * frame.values) / _LN2
    return ctx.m - np.sum(loss, axis=1)


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

    @property
    def samples(self) -> int:
        return int(self.point_index.size)


def scatter_dump(
    ctx: DemapContext,
    n0: float,
    samples: int,
    rng: np.random.Generator,
    file=None,
) -> ScatterDump:
    """Sample the inverse-map output cloud and its per-point centers.

    With ``file`` set, writes the sample rows to that CSV and the centers
    to a sibling ``*_centers.csv``.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    idx, y = ctx.draw(samples, n0, rng)
    z = ctx.unmap(y)
    dump = ScatterDump(idx, ctx.qam_grid.points[idx], z, *cluster_centers(idx, z, ctx.M))
    if file is not None:
        _write_scatter_csv(dump, ctx, file)
    return dump


def _write_scatter_csv(dump: ScatterDump, ctx: DemapContext, file) -> None:
    path = Path(file)
    with open(path, "w") as fh:
        fh.write(f"# qci-scatter v1, M={ctx.M}, constellation={ctx.name}\n")
        fh.write("x_qam_u,x_qam_v,z_u,z_v\n")
        for ref, z in zip(dump.qam_ref, dump.remapped):
            fh.write(f"{ref[0]:.10g},{ref[1]:.10g},{z[0]:.10g},{z[1]:.10g}\n")
    centers_path = path.with_name(path.stem + "_centers" + path.suffix)
    with open(centers_path, "w") as fh:
        fh.write(f"# qci-scatter-centers v1, M={ctx.M}, constellation={ctx.name}\n")
        fh.write("point_index,qam_u,qam_v,center_u,center_v,count\n")
        for i in range(ctx.M):
            g = ctx.qam_grid.points[i]
            c = dump.centers[i]
            fh.write(f"{i},{g[0]:.10g},{g[1]:.10g},{c[0]:.10g},{c[1]:.10g},{int(dump.counts[i])}\n")
