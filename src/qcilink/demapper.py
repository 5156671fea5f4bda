"""Soft demappers: exact 2D, max-log, PAM decomposition, and the remap-first paths.

Sign convention: positive LLR means bit 0 is the more likely value (the
bit-0 subset sits in the numerator of the likelihood ratio). All Gaussian
exponents are ||y - x||^2 / n0, i.e. noise variance n0/2 per dimension; the
one-dimensional PAM demapper uses the matching per-axis exponent
(y - x)^2 / n0.

The low-complexity path for disc-shaped constellations is two steps: apply
the inverse radial map to the received point, then demap I and Q as two
one-dimensional PAM problems. The radial map commutes with positive
scaling, so it applies in channel coordinates (peak power 1) as it is.
The Gaussian assumption with the channel's true n0 is then deliberately
kept even though the remapped noise is no longer Gaussian; the affine
gain/offset compensation partially corrects the resulting moment mismatch
without leaving the O(sqrt(M)) complexity class.

Every demapper returns an :class:`LlrFrame` whose ``distance_evals``
counter records the number of point-distance computations consumed:
M per symbol for the 2D paths, 2*sqrt(M) for the decomposed paths.

Every kernel works one row block at a time (``_BLOCK_ELEMS`` elements,
0.5 MB of distances), so each elementwise pass over a block runs in L2
cache, and writes the block's LLRs straight into its rows of the output.
Exact log-MAP, over 2D points or PAM levels, is one loop that differs only
in its distance function: distances, shifted ``exp`` in place, then the two
BLAS label products. Max-log transposes each block to points-major
(M, rows), so each bit subset is a gather of rows reduced along contiguous
memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import transmit
from .constellation import Constellation, build_pam, build_qam, build_qci, normalize_peak
from .errors import ConfigError
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
    """

    family: str  # one of FAMILIES
    constellation: Constellation
    qam_grid: Constellation
    pam_grid: Constellation | None

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

        Identity for the QAM and file families; for the disc-shaped family
        the inverse radial map, which commutes with the peak normalization.
        """
        if self.family != "qci":
            return np.asarray(y, dtype=np.float64)
        return radial_inverse(y)

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
    return DemapContext("qam", tx, tx, _component_pam(M, tx.scale))


def qci_context(M: int) -> DemapContext:
    """Context for transmitting the peak-normalized disc-shaped constellation.

    The same scale factor is applied to the QAM preimage grid (the shaping
    map preserves peak power, so one factor normalizes both).
    """
    tx = normalize_peak(build_qci(M))
    s = tx.scale
    return DemapContext("qci", tx, _scaled(build_qam(M), s), _component_pam(M, s))


def custom_context(c: Constellation) -> DemapContext:
    """Context for an externally loaded 2D constellation (ML demapping only)."""
    if c.dimension != 2:
        raise ConfigError(f"family 'file' needs a 2D constellation, not a {c.dimension}D one")
    tx = normalize_peak(c)
    return DemapContext("file", tx, tx, None)


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


def _shifted_exp(d2: np.ndarray, n0: float) -> np.ndarray:
    """exp(-(d2 - min) / n0) per row, computed in place in ``d2``.

    Rows are shifted by their smallest distance before exponentiation; the
    shift cancels in the LLR ratio. ``min - d2`` is exactly ``-(d2 - min)``
    up to the sign of zero, which ``exp`` hides, so the bytes match the
    out-of-place expression.
    """
    np.subtract(d2.min(axis=1, keepdims=True), d2, out=d2)
    np.divide(d2, n0, out=d2)
    return np.exp(d2, out=d2)


def _d2_2d(y: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """(N, M) squared distances |y|^2 + |p|^2 - 2 y.p; doubling y is exact."""
    d2 = np.add(np.sum(y ** 2, axis=1)[:, None], np.sum(pts ** 2, axis=1)[None, :])
    d2 -= (2.0 * y) @ pts.T
    return d2


def _d2_1d(y: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """(N, M) squared distances of axis samples to PAM levels."""
    return (y[:, None] - pts[None, :]) ** 2


# elements of each row block (0.5 MB), so every pass over a block's (rows, M)
# distances stays in L2 cache
_BLOCK_ELEMS = 62_500


def _blocks(n: int, M: int):
    step = max(1, _BLOCK_ELEMS // M)
    for a in range(0, n, step):
        yield a, min(a + step, n)


def _log_map(ys: np.ndarray, c: Constellation, n0: float, d2_of) -> LlrFrame:
    """Exact log-MAP LLRs, one row block at a time; ``d2_of(rows, points)`` gives the distances.

    A fully underflowed bit subset yields an infinite LLR, which the clamp
    folds back to +-LLR_CLAMP.
    """
    w0 = (c.labels == 0).astype(np.float64)  # (M, m)
    w1 = 1.0 - w0
    out = np.empty((len(ys), c.m))
    for a, b in _blocks(len(ys), c.M):
        e = _shifted_exp(d2_of(ys[a:b], c.points), n0)
        # two products, not one e @ [w0, w1]: BLAS blocks a wider product
        # differently and the LLR bytes move
        s0, s1 = e @ w0, e @ w1
        with np.errstate(divide="ignore"):
            np.subtract(np.log(s0, out=s0), np.log(s1, out=s1), out=out[a:b])
    return LlrFrame(np.clip(out, -LLR_CLAMP, LLR_CLAMP, out=out), distance_evals=len(ys) * c.M)


def llr_exact_2d(y, c: Constellation, n0: float) -> LlrFrame:
    """Full log-MAP LLRs over a 2D constellation; M distance evals per symbol."""
    n0 = _check_n0(n0)
    if c.dimension != 2:
        raise ValueError("llr_exact_2d requires a 2D constellation")
    return _log_map(_symbols_2d(y), c, n0, _d2_2d)


def llr_maxlog_2d(y, c: Constellation, n0: float) -> LlrFrame:
    """Max-log variant: nearest-point distances replace the log-sum-exp."""
    n0 = _check_n0(n0)
    if c.dimension != 2:
        raise ValueError("llr_maxlog_2d requires a 2D constellation")
    ys = _symbols_2d(y)
    out = np.empty((len(ys), c.m))
    bit0 = [np.nonzero(c.labels[:, i] == 0)[0] for i in range(c.m)]
    bit1 = [np.nonzero(c.labels[:, i] == 1)[0] for i in range(c.m)]
    for a, b in _blocks(len(ys), c.M):
        # points-major (M, rows): each bit subset is a row gather reduced along contiguous rows
        d2 = _d2_2d(ys[a:b], c.points).T.copy()
        for i in range(c.m):
            out[a:b, i] = (d2[bit1[i]].min(axis=0) - d2[bit0[i]].min(axis=0)) / n0
    return LlrFrame(np.clip(out, -LLR_CLAMP, LLR_CLAMP, out=out), distance_evals=len(ys) * c.M)


def llr_pam(y_axis, pam: Constellation, n0: float) -> LlrFrame:
    """One-dimensional log-MAP over a PAM constellation (variance n0/2 per axis)."""
    n0 = _check_n0(n0)
    if pam.dimension != 1:
        raise ValueError("llr_pam requires a 1D constellation")
    return _log_map(_symbols_1d(y_axis), pam, n0, _d2_1d)


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
    """One demapper kind of the run configuration, as the steps of its pipeline.

    families   : the FAMILIES it can demap
    remap      : undo the shaping map (``DemapContext.unmap``) and demap
                 against the square grid instead of the transmitted points
    per_axis   : split the (remapped) point into two PAM demappers,
                 2*sqrt(M) distance evals per symbol instead of M
    maxlog     : max-log instead of the exact log-sum-exp in a 2D demapper
    needs_comp : apply an AffineCompensation to the remapped point
    """

    families: tuple
    remap: bool = False
    per_axis: bool = False
    maxlog: bool = False
    needs_comp: bool = False


# Per-axis demapping is bit-exact on product QAM (the Gaussian density and
# the labeling factor over I and Q; a qam context remaps by the identity).
# qci_remapped_2d demaps jointly: it separates the I/Q split from the remap's mismatch.
DEMAPPERS = {
    "exact2d": Demapper(FAMILIES),
    "maxlog2d": Demapper(FAMILIES, maxlog=True),
    "qam_decomposed": Demapper(("qam",), remap=True, per_axis=True),
    "qci_lcd": Demapper(("qam", "qci"), remap=True, per_axis=True),
    "qci_lcd_compensated": Demapper(("qci",), remap=True, per_axis=True, needs_comp=True),
    "qci_remapped_2d": Demapper(("qam", "qci"), remap=True),
}
DEMAPPER_KINDS = tuple(DEMAPPERS)


def demap(kind: str, y, ctx: DemapContext, n0: float, comp: AffineCompensation | None = None) -> LlrFrame:
    """Run the pipeline of a demapper kind by configuration name.

    ``qci_lcd_compensated`` requires ``comp``; the other kinds ignore it.
    """
    spec = DEMAPPERS.get(kind)
    if spec is None:
        raise ValueError(f"unknown demapper kind {kind!r}; choose from {DEMAPPER_KINDS}")
    if ctx.family not in spec.families:
        raise ValueError(f"demapper {kind!r} supports only the families {spec.families}, not {ctx.family!r}")
    if spec.needs_comp and comp is None:
        raise ValueError(f"{kind} requires an AffineCompensation")
    if spec.remap:
        z, grid = ctx.unmap(_symbols_2d(y)), ctx.qam_grid
        if spec.needs_comp:
            z = comp.alpha * z + comp.beta
    else:
        z, grid = y, ctx.constellation
    if spec.per_axis:
        # I and Q samples alternate, so each row of m LLRs is a symbol's I bits, then its Q bits
        frame = llr_pam(z.reshape(-1), ctx.pam_grid, n0)
    else:
        frame = (llr_maxlog_2d if spec.maxlog else llr_exact_2d)(z, grid, n0)
    values = frame.values.reshape(-1, ctx.m)
    map_evals = len(values) if spec.remap and ctx.family == "qci" else 0
    return LlrFrame(values, frame.distance_evals, map_evals)
