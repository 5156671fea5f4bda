"""Soft demappers: exact 2D, max-log, PAM decomposition, and the remap-first paths.

Sign convention: positive LLR means bit 0 is the more likely value (the
bit-0 subset sits in the numerator of the likelihood ratio). All Gaussian
exponents are ||y - x||^2 / n0, i.e. noise variance n0/2 per dimension; the
one-dimensional PAM demapper uses the matching per-axis exponent
(y - x)^2 / n0.

The low-complexity path for disc-shaped constellations applies the inverse
radial map before demapping. In channel coordinates (peak power 1) that
remap is conjugated by the normalization scale s: y -> s * f_inv(y / s).
The Gaussian assumption with the channel's true n0 is then deliberately
kept even though the remapped noise is no longer Gaussian; the affine
gain/offset compensation partially corrects the resulting moment mismatch
without leaving the O(sqrt(M)) complexity class.

Every demapper returns an :class:`LlrFrame` whose ``distance_evals``
counter records the number of point-distance computations consumed:
M per symbol for the 2D paths, 2*sqrt(M) for the decomposed paths.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import transmit
from .constellation import Constellation, build_pam, build_qam, build_qci, normalize_peak
from .geometry import radial_inverse

LLR_CLAMP = 60.0

# constellation families, named as in the run configuration
FAMILIES = ("qam", "qci", "file")


@dataclass(frozen=True)
class LlrFrame:
    """Per-bit LLRs for a block of symbols, plus complexity counters.

    values : (num_symbols, m) float64, clamped to +-LLR_CLAMP
    distance_evals : point-distance computations consumed by the block
    map_evals : inverse-map evaluations consumed (remap-first paths only)
    """

    values: np.ndarray
    distance_evals: int
    map_evals: int = 0

    @property
    def num_symbols(self) -> int:
        return self.values.shape[0]

    def hard_bits(self) -> np.ndarray:
        """Hard decisions: LLR < 0 decides bit 1."""
        return (self.values < 0.0).astype(np.uint8)


@dataclass(frozen=True)
class AffineCompensation:
    """Scalar gain and 2D offset applied to the remapped signal: z -> alpha*z + beta."""

    alpha: float
    beta: np.ndarray

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        beta = np.asarray(self.beta, dtype=np.float64)
        if beta.shape != (2,) or not np.all(np.isfinite(beta)):
            raise ValueError("beta must be a finite 2-vector")
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class DemapContext:
    """A transmit constellation bundled with its square-grid preimage.

    constellation : peak-normalized constellation actually transmitted
    qam_grid      : peak-normalized square QAM it is the image of
                    (identical object for the plain QAM family)
    pam_grid      : matching peak-normalized component PAM
    peak_scale    : factor taking canonical [-1,1] coordinates to channel
                    coordinates
    """

    family: str  # one of FAMILIES
    constellation: Constellation
    qam_grid: Constellation
    pam_grid: Constellation | None
    peak_scale: float

    @property
    def M(self) -> int:
        return self.constellation.M

    @property
    def m(self) -> int:
        return self.constellation.m

    @property
    def name(self) -> str:
        return self.constellation.name

    def unmap(self, y: np.ndarray) -> np.ndarray:
        """Undo the constellation-shaping map in channel coordinates.

        Identity for the QAM and file families; the scale-conjugated
        inverse radial map for the disc-shaped family.
        """
        if self.family != "qci":
            return np.asarray(y, dtype=np.float64)
        s = self.peak_scale
        return s * radial_inverse(np.asarray(y, dtype=np.float64) / s)

    def draw(self, num: int, n0: float, rng: np.random.Generator):
        """``num`` uniformly drawn point indices and their noisy channel outputs."""
        idx = rng.integers(0, self.M, size=num)
        return idx, transmit(self.constellation.points[idx], n0, rng)


def _scaled(c: Constellation, s: float) -> Constellation:
    return Constellation(c.points * s, c.labels, name=c.name, scale=s)


def _component_pam(M: int, s: float) -> Constellation:
    return _scaled(build_pam(int(round(math.sqrt(M)))), s)


def qam_context(M: int) -> DemapContext:
    """Context for transmitting peak-normalized square QAM."""
    tx = normalize_peak(build_qam(M))
    return DemapContext("qam", tx, tx, _component_pam(M, tx.scale), tx.scale)


def qci_context(M: int) -> DemapContext:
    """Context for transmitting the peak-normalized disc-shaped constellation.

    The same scale factor is applied to the QAM preimage grid (the shaping
    map preserves peak power, so one factor normalizes both).
    """
    tx = normalize_peak(build_qci(M))
    s = tx.scale
    return DemapContext("qci", tx, _scaled(build_qam(M), s), _component_pam(M, s), s)


def custom_context(c: Constellation) -> DemapContext:
    """Context for an externally loaded 2D constellation (ML demapping only)."""
    if c.dimension != 2:
        raise ValueError("custom contexts require a 2D constellation")
    tx = normalize_peak(c)
    return DemapContext("file", tx, tx, None, tx.scale)


def _check_n0(n0: float) -> float:
    if not n0 > 0.0:
        raise ValueError("n0 must be positive")
    return float(n0)


def _symbols_2d(y) -> np.ndarray:
    arr = np.asarray(y, dtype=np.float64)
    if arr.ndim == 1 and arr.shape == (2,):
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected symbols with shape (N, 2) or a single (2,) point")
    if not np.all(np.isfinite(arr)):
        raise ValueError("received symbols must be finite")
    return arr

def _symbols_1d(y) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if arr.ndim != 1:
        raise ValueError("expected a 1D array of axis samples")
    if not np.all(np.isfinite(arr)):
        raise ValueError("received samples must be finite")
    return arr


def _llr_from_d2(d2: np.ndarray, labels: np.ndarray, n0: float) -> np.ndarray:
    """Stable log-sum-exp LLRs from squared distances, one column per bit.

    Rows are shifted by their smallest distance before exponentiation; the
    shift cancels in the ratio. A fully underflowed subset yields an
    infinite LLR which the clamp folds back to +-LLR_CLAMP.
    """
    w0 = (labels == 0).astype(np.float64)  # (M, m)
    e = np.exp(-(d2 - d2.min(axis=1, keepdims=True)) / n0)
    s0 = e @ w0
    s1 = e @ (1.0 - w0)
    with np.errstate(divide="ignore"):
        llr = np.log(s0) - np.log(s1)
    return np.clip(llr, -LLR_CLAMP, LLR_CLAMP)


def _d2_2d(y: np.ndarray, pts: np.ndarray) -> np.ndarray:
    return (
        np.sum(y ** 2, axis=1)[:, None]
        + np.sum(pts ** 2, axis=1)[None, :]
        - 2.0 * (y @ pts.T)
    )

_CHUNK_ELEMS = 4_000_000  # keep the (chunk, M) distance matrix ~30 MB


def _chunked(n_rows: int, M: int):
    step = max(1, _CHUNK_ELEMS // max(M, 1))
    for lo in range(0, n_rows, step):
        yield lo, min(lo + step, n_rows)


def llr_exact_2d(y, c: Constellation, n0: float) -> LlrFrame:
    """Full log-MAP LLRs over a 2D constellation; M distance evals per symbol."""
    n0 = _check_n0(n0)
    if c.dimension != 2:
        raise ValueError("llr_exact_2d requires a 2D constellation")
    ys = _symbols_2d(y)
    out = np.empty((len(ys), c.m))
    for lo, hi in _chunked(len(ys), c.M):
        out[lo:hi] = _llr_from_d2(_d2_2d(ys[lo:hi], c.points), c.labels, n0)
    return LlrFrame(out, distance_evals=len(ys) * c.M)


def llr_maxlog_2d(y, c: Constellation, n0: float) -> LlrFrame:
    """Max-log variant: nearest-point distances replace the log-sum-exp."""
    n0 = _check_n0(n0)
    if c.dimension != 2:
        raise ValueError("llr_maxlog_2d requires a 2D constellation")
    ys = _symbols_2d(y)
    out = np.empty((len(ys), c.m))
    bit0 = [np.nonzero(c.labels[:, i] == 0)[0] for i in range(c.m)]
    bit1 = [np.nonzero(c.labels[:, i] == 1)[0] for i in range(c.m)]
    for lo, hi in _chunked(len(ys), c.M):
        d2 = _d2_2d(ys[lo:hi], c.points)
        for i in range(c.m):
            out[lo:hi, i] = (d2[:, bit1[i]].min(axis=1) - d2[:, bit0[i]].min(axis=1)) / n0
    return LlrFrame(np.clip(out, -LLR_CLAMP, LLR_CLAMP), distance_evals=len(ys) * c.M)


def llr_pam(y_axis, pam: Constellation, n0: float) -> LlrFrame:
    """One-dimensional log-MAP over a PAM constellation (variance n0/2 per axis)."""
    n0 = _check_n0(n0)
    if pam.dimension != 1:
        raise ValueError("llr_pam requires a 1D constellation")
    ys = _symbols_1d(y_axis)
    d2 = (ys[:, None] - pam.points[None, :]) ** 2
    vals = _llr_from_d2(d2, pam.labels, n0)
    return LlrFrame(vals, distance_evals=len(ys) * pam.M)


def _llr_decomposed(z: np.ndarray, ctx: DemapContext, n0: float) -> np.ndarray:
    fi = llr_pam(z[:, 0], ctx.pam_grid, n0)
    fq = llr_pam(z[:, 1], ctx.pam_grid, n0)
    return np.hstack([fi.values, fq.values])


def llr_qam_decomposed(y, ctx: DemapContext, n0: float) -> LlrFrame:
    """Per-axis PAM demapping of product QAM; bit-exact vs. the 2D log-MAP.

    The Gaussian density factorizes over I and Q and the product labeling
    assigns each bit to exactly one axis, so nothing is lost: 2*sqrt(M)
    distance evals per symbol instead of M.
    """
    n0 = _check_n0(n0)
    if ctx.family != "qam" or ctx.pam_grid is None:
        raise ValueError("decomposed demapping requires a product-QAM context")
    ys = _symbols_2d(y)
    vals = _llr_decomposed(ys, ctx, n0)
    return LlrFrame(vals, distance_evals=len(ys) * 2 * ctx.pam_grid.M)


def llr_qci_lcd(y, ctx: DemapContext, n0: float, comp: AffineCompensation | None = None) -> LlrFrame:
    """Low-complexity path: inverse map, then per-axis PAM demapping.

    Optionally applies an affine compensation to the remapped signal first.
    On a QAM context the inverse map degenerates to the identity and this
    equals :func:`llr_qam_decomposed`.
    """
    n0 = _check_n0(n0)
    if ctx.pam_grid is None:
        raise ValueError("this context has no PAM decomposition")
    ys = _symbols_2d(y)
    z = ctx.unmap(ys)
    if comp is not None:
        z = comp.alpha * z + comp.beta
    vals = _llr_decomposed(z, ctx, n0)
    map_evals = len(ys) if ctx.family == "qci" else 0
    return LlrFrame(vals, distance_evals=len(ys) * 2 * ctx.pam_grid.M, map_evals=map_evals)


def llr_qci_remapped_2d(y, ctx: DemapContext, n0: float) -> LlrFrame:
    """Diagnostic path: inverse map, then full 2D log-MAP against the square grid.

    Isolates the cost of the I/Q decomposition from the cost of the
    Gaussian mismatch; still mismatched, but jointly over both axes.
    """
    n0 = _check_n0(n0)
    ys = _symbols_2d(y)
    z = ctx.unmap(ys)
    frame = llr_exact_2d(z, ctx.qam_grid, n0)
    map_evals = len(ys) if ctx.family == "qci" else 0
    return LlrFrame(frame.values, distance_evals=frame.distance_evals, map_evals=map_evals)


def cluster_centers(idx: np.ndarray, z: np.ndarray, M: int):
    """Mean of the 2D samples ``z`` per point index, plus the sample counts.

    Points that were never drawn get a NaN center and a count of 0.
    """
    counts = np.bincount(idx, minlength=M)
    sums = np.zeros((M, 2))
    np.add.at(sums, idx, z)
    with np.errstate(invalid="ignore"):
        return sums / counts[:, None], counts


def estimate_affine_compensation(
    ctx: DemapContext, n0: float, samples: int, rng: np.random.Generator
) -> AffineCompensation:
    """Moment-match the remapped clusters onto the square grid by Monte Carlo.

    Draws uniform symbols through the channel and the inverse map, computes
    the per-point cluster centers of the remapped signal, and picks the
    least-squares gain aligning those centers with their grid preimages,
    alpha = E[<mean(z|x), x>] / E[||mean(z|x)||^2], plus the residual mean
    offset beta. Fitting the centers rather than the raw samples keeps the
    estimate free of noise-power shrinkage: an undistorted cloud yields
    alpha = 1 (up to Monte Carlo error), and in the noiseless limit
    alpha -> 1 and beta -> 0 exactly.
    """
    if samples < 10_000:
        raise ValueError("affine estimation needs at least 10000 samples")
    idx, y = ctx.draw(samples, n0, rng)
    centers, counts = cluster_centers(idx, ctx.unmap(y), ctx.M)
    seen = counts > 0
    centers = centers[seen]
    grid = ctx.qam_grid.points[seen]
    w = counts[seen, None]
    alpha = float(np.sum(w * centers * grid) / np.sum(w * centers * centers))
    if not alpha > 0.0:
        raise ValueError("degenerate compensation estimate (nonpositive gain)")
    beta = np.sum(w * (grid - alpha * centers), axis=0) / np.sum(w)
    return AffineCompensation(alpha=alpha, beta=beta)


class Demapper(NamedTuple):
    """One demapper kind of the run configuration."""

    llr: Callable  # (y, ctx, n0, comp) -> LlrFrame
    families: tuple  # the FAMILIES it can demap
    needs_comp: bool = False  # requires an AffineCompensation


# The entries look the llr_* functions up by name at call time, so a
# function replaced on this module is the one that runs.
DEMAPPERS = {
    "exact2d": Demapper(lambda y, ctx, n0, comp: llr_exact_2d(y, ctx.constellation, n0), FAMILIES),
    "maxlog2d": Demapper(lambda y, ctx, n0, comp: llr_maxlog_2d(y, ctx.constellation, n0), FAMILIES),
    "qam_decomposed": Demapper(lambda y, ctx, n0, comp: llr_qam_decomposed(y, ctx, n0), ("qam",)),
    "qci_lcd": Demapper(lambda y, ctx, n0, comp: llr_qci_lcd(y, ctx, n0), ("qam", "qci")),
    "qci_lcd_compensated": Demapper(
        lambda y, ctx, n0, comp: llr_qci_lcd(y, ctx, n0, comp=comp), ("qci",), needs_comp=True),
    "qci_remapped_2d": Demapper(lambda y, ctx, n0, comp: llr_qci_remapped_2d(y, ctx, n0), ("qam", "qci")),
}
DEMAPPER_KINDS = tuple(DEMAPPERS)


def demap(kind: str, y, ctx: DemapContext, n0: float, comp: AffineCompensation | None = None) -> LlrFrame:
    """Dispatch a demapper by configuration name.

    ``qci_lcd_compensated`` requires ``comp``; the other kinds ignore it.
    """
    spec = DEMAPPERS.get(kind)
    if spec is None:
        raise ValueError(f"unknown demapper kind {kind!r}; choose from {DEMAPPER_KINDS}")
    if spec.needs_comp and comp is None:
        raise ValueError(f"{kind} requires an AffineCompensation")
    return spec.llr(y, ctx, n0, comp)
