"""Soft demappers: exact 2D, max-log, PAM decomposition, and the remap-first paths.

Sign convention: positive LLR means bit 0 is the more likely value (the
bit-0 subset sits in the numerator of the likelihood ratio). All Gaussian
exponents are ||y - x||^2 / n0, i.e. noise variance n0/2 per dimension; the
one-dimensional PAM demapper uses the matching per-axis exponent
(y - x)^2 / n0.

The low-complexity path for disc-shaped constellations is two steps: apply
the inverse radial map to the received point, then demap I and Q as two
one-dimensional PAM problems, each of which writes its half of the bit rows
(I bits, then Q bits) in place. The radial map commutes with positive
scaling, so it applies in channel coordinates (peak power 1) as it is.
The Gaussian assumption with the channel's true n0 is then deliberately
kept even though the remapped noise is no longer Gaussian; the affine
gain/offset compensation partially corrects the resulting moment mismatch
without leaving the O(sqrt(M)) complexity class.

Every demapper returns an :class:`LlrFrame` whose ``distance_evals``
counter records the number of point-distance computations consumed:
M per symbol for the 2D paths, 2*sqrt(M) for the decomposed paths.

Every kernel has one layout. Exponents are points-major, one (M, cols)
block of ``_BLOCK_ELEMS`` elements (0.5 MB, in L2 cache) at a time, so each
reduction over the points is elementwise work across contiguous rows; the
LLRs come out bit-major, one (m, N) array whose (N, m) transposed view is
``LlrFrame.values``. Every kernel builds a block's exponents with one small
product ``P @ Y``: P = [-|p|^2/n0, p] per point, Y = [1; 2y/n0] per sample.
That is -|y - p|^2/n0 up to the per-sample constant -|y|^2/n0, which every
LLR cancels, so it is never computed. Exact log-MAP, over 2D points or PAM
levels, shifts each column by its maximum, takes ``exp`` in place, then the
BLAS label products ``w0 @ e`` and ``w1 @ e``. Max-log takes the rows
into label order and subtracts the largest exponent of each bit's bit-1
rows from that of its bit-0 rows.
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

    values : (num_symbols, m) float64, clamped to +-LLR_CLAMP: the transposed
             view of the bit-major (m, num_symbols) array the kernels write
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
        return radial_inverse(y) if self.family == "qci" else np.asarray(y, dtype=np.float64)

    def draw_chunks(self, num: int, n0: float, rng: np.random.Generator, chunk: int):
        """Yield ``num`` uniformly drawn point indices and their noisy channel outputs, in chunks.

        All ``num`` indices are drawn first, then the noise of one chunk of
        ``chunk`` symbols per step (the last chunk may be shorter; ``num`` 0
        gives one empty chunk). The generator draws normals one after
        another, so the chunks together hold the same stream as one draw of
        ``num`` symbols.
        """
        idx = rng.integers(0, self.M, size=num)
        for a in range(0, max(num, 1), chunk):
            part = idx[a:a + chunk]
            yield part, transmit(np.take(self.constellation.points, part, axis=0), n0, rng)

    def draw(self, num: int, n0: float, rng: np.random.Generator):
        """``num`` uniformly drawn point indices and their noisy channel outputs, in one chunk."""
        return next(self.draw_chunks(num, n0, rng, max(num, 1)))


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
    return DemapContext("qci", tx, _scaled(build_qam(M), tx.scale), _component_pam(M, tx.scale))


def custom_context(c: Constellation) -> DemapContext:
    """Context for an externally loaded 2D constellation (ML demapping only)."""
    if c.dimension != 2:
        raise ConfigError(f"family 'file' needs a 2D constellation, not a {c.dimension}D one")
    tx = normalize_peak(c)
    return DemapContext("file", tx, tx, None)


def _received(y, dim: int) -> np.ndarray:
    """Finite float64 samples: (N,) on one axis, or (N, 2) symbols, of which a (2,) point is one."""
    arr = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if dim == 2 and arr.shape == (2,):
        arr = arr[None, :]
    if arr.shape[1:] != (2,) * (dim - 1):
        raise ValueError("expected symbols with shape (N, 2) or a single (2,) point" if dim == 2
                         else "expected a 1D array of axis samples")
    if not np.all(np.isfinite(arr)):
        raise ValueError("received samples must be finite")
    return arr


def _kernel_args(y, c: Constellation, n0: float, dim: int, kernel: str):
    """The checked received samples and n0 of a kernel over a ``dim``-dimensional constellation."""
    if not n0 > 0.0:
        raise ValueError("n0 must be positive")
    if c.dimension != dim:
        raise ValueError(f"{kernel} requires a {dim}D constellation")
    return _received(y, dim), float(n0)


# Floor of the shifted exponents: below -708, exp gives subnormals or zeros,
# which slow exp and the BLAS label products many-fold. A term of 1e-304 moves
# no LLR: one bit sum holds exp(0) = 1, and the other escapes the clamp only
# above exp(-LLR_CLAMP) = 8.8e-27, where such terms fall below half an ulp.
# The shift is by each column's largest exponent: a per-column constant, as is
# the -|y|^2/n0 the exponent product leaves out. So no |y|^2 is computed, and
# its rounding, largest far outside the constellation, never reaches the LLRs.
_EXP_FLOOR = -700.0

# elements of each column block (0.5 MB), so every pass over a block's (M, cols)
# exponents stays in L2 cache
_BLOCK_ELEMS = 62_500


def _block_cols(c: Constellation) -> int:
    """Columns of each (M, cols) exponent block over the points of ``c``."""
    return max(1, _BLOCK_ELEMS // c.M)


def _exponent_blocks(ys: np.ndarray, n0: float, c: Constellation):
    """(a, b, e) per column block of ``ys``: e = -(|y - p|^2 - |y|^2) / n0, points-major (M, b - a).

    e is the product P @ Y of P = [-|p|^2/n0, p], a row per point, and
    Y = [1; 2y/n0], a column per sample.
    """
    pts = c.points.reshape(c.M, -1)
    P = np.column_stack([-np.sum(pts ** 2, axis=1) / n0, pts])
    step = _block_cols(c)
    for a in range(0, len(ys), step):
        b = min(a + step, len(ys))
        Y = np.ones((P.shape[1], b - a))
        np.divide(ys[a:b].reshape(b - a, -1).T, n0 / 2.0, out=Y[1:])
        yield a, b, P @ Y


def _log_map(ys: np.ndarray, n0: float, c: Constellation, out: np.ndarray | None = None) -> LlrFrame:
    """Exact log-MAP LLRs, one column block of exponents at a time.

    The bit-major LLRs go to ``out``, an (m, len(ys)) float64 array, or to a
    new one. A bit subset whose terms all sit at the exponent floor yields
    an LLR near +-700, which the clamp folds back to +-LLR_CLAMP.
    """
    w0 = np.ascontiguousarray(c.labels.T == 0, dtype=np.float64)  # (m, M)
    w1 = 1.0 - w0
    if out is None:
        out = np.empty((c.m, len(ys)))
    for a, b, e in _exponent_blocks(ys, n0, c):
        np.subtract(e, e.max(axis=0), out=e)
        np.maximum(e, _EXP_FLOOR, out=e)
        np.exp(e, out=e)
        # two products, not one [w0; w1] @ e: BLAS blocks a wider product
        # differently and the LLR bytes move
        s0, s1 = w0 @ e, w1 @ e
        np.subtract(np.log(s0, out=s0), np.log(s1, out=s1), out=out[:, a:b])
    return LlrFrame(np.clip(out, -LLR_CLAMP, LLR_CLAMP, out=out).T, len(ys) * c.M)


def llr_exact_2d(y, c: Constellation, n0: float) -> LlrFrame:
    """Full log-MAP LLRs over a 2D constellation; M distance evals per symbol."""
    return _log_map(*_kernel_args(y, c, n0, 2, "llr_exact_2d"), c)


def llr_maxlog_2d(y, c: Constellation, n0: float) -> LlrFrame:
    """Max-log variant: the largest exponent of each bit subset replaces the log-sum-exp.

    The M labels are all 2^m words, so one gather puts each exponent block
    in label order, and bit i's subsets are then the strided halves
    ``[:, 0]`` and ``[:, 1]`` of its (2^i, 2, 2^(m-1-i), cols) view: no
    gather per bit. The rows are permuted after the product, not before:
    BLAS may round a product of permuted rows differently.
    """
    ys, n0 = _kernel_args(y, c, n0, 2, "llr_maxlog_2d")
    out = np.empty((c.m, len(ys)))
    order = np.argsort(Constellation._codes_of(c.labels))
    for a, b, e in _exponent_blocks(ys, n0, c):
        e = np.take(e, order, axis=0)
        for i in range(c.m):
            halves = e.reshape(2 ** i, 2, -1, b - a)
            np.subtract(halves[:, 0].max(axis=(0, 1)), halves[:, 1].max(axis=(0, 1)), out=out[i, a:b])
    return LlrFrame(np.clip(out, -LLR_CLAMP, LLR_CLAMP, out=out).T, len(ys) * c.M)


def llr_pam(y_axis, pam: Constellation, n0: float, out: np.ndarray | None = None) -> LlrFrame:
    """One-dimensional log-MAP over a PAM constellation (variance n0/2 per axis).

    ``out``, if given, is the (k, N) float64 array the bit-major LLRs are
    written to, for example k rows of a symbol's (m, N) LLR array.
    """
    ys, n0 = _kernel_args(y_axis, pam, n0, 1, "llr_pam")
    if out is not None and out.shape != (pam.m, len(ys)):
        raise ValueError(f"out must have shape {(pam.m, len(ys))}, not {out.shape}")
    return _log_map(ys, n0, pam, out)


def cluster_centers(idx: np.ndarray, z: np.ndarray, M: int):
    """Mean of the 2D samples ``z`` per point index, plus the sample counts.

    Points that were never drawn get a NaN center and a count of 0.
    """
    counts = np.bincount(idx, minlength=M)
    sums = np.stack([np.bincount(idx, weights=w, minlength=M) for w in z.T], axis=1)
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


# The Gaussian density and the product Gray labels of the square grid factor
# over I and Q, so per-axis demapping equals joint demapping up to rounding:
# qci_remapped_2d gives qci_lcd's LLRs and stays as their O(M) cost reference.
DEMAPPERS = {
    "exact2d": Demapper(FAMILIES),
    "maxlog2d": Demapper(FAMILIES, maxlog=True),
    "qam_decomposed": Demapper(("qam",), remap=True, per_axis=True),
    "qci_lcd": Demapper(("qam", "qci"), remap=True, per_axis=True),
    "qci_lcd_compensated": Demapper(("qci",), remap=True, per_axis=True, needs_comp=True),
    "qci_remapped_2d": Demapper(("qam", "qci"), remap=True),
}
DEMAPPER_KINDS = tuple(DEMAPPERS)


def _spec(kind: str, ctx: DemapContext) -> Demapper:
    """The ``DEMAPPERS`` row of ``kind``, checked against the family of ``ctx``."""
    spec = DEMAPPERS.get(kind)
    if spec is None:
        raise ValueError(f"unknown demapper kind {kind!r}; choose from {DEMAPPER_KINDS}")
    if ctx.family not in spec.families:
        raise ValueError(f"demapper {kind!r} supports only the families {spec.families}, not {ctx.family!r}")
    return spec


def column_block(kind: str, ctx: DemapContext) -> int:
    """Symbols per exponent block of the kernel that ``demap`` runs for ``kind`` on ``ctx``.

    A 2D kernel demaps M points, a per-axis one the sqrt(M) PAM levels of
    each axis. BLAS may round a label product of another width differently,
    so a batch split at multiples of this width gets the LLR bytes of the
    whole batch.
    """
    return _block_cols(ctx.pam_grid if _spec(kind, ctx).per_axis else ctx.constellation)


def demap(kind: str, y, ctx: DemapContext, n0: float, comp: AffineCompensation | None = None) -> LlrFrame:
    """Run the pipeline of a demapper kind by configuration name.

    ``qci_lcd_compensated`` requires ``comp``; the other kinds ignore it.
    """
    spec = _spec(kind, ctx)
    if spec.needs_comp and comp is None:
        raise ValueError(f"{kind} requires an AffineCompensation")
    if spec.remap:
        z, grid = ctx.unmap(_received(y, 2)), ctx.qam_grid
        if spec.needs_comp:
            # on the (2, N) columns, which keeps z column-major
            z = (comp.alpha * z.T + comp.beta[:, None]).T
    else:
        z, grid = y, ctx.constellation
    if spec.per_axis:
        # the symbol's bit order is I bits, then Q bits: each axis's PAM
        # demapper writes its k rows of the (m, N) LLRs in place
        k = ctx.pam_grid.m
        bits = np.empty((2 * k, len(z)))
        evals = sum(llr_pam(z[:, i], ctx.pam_grid, n0, out=bits[i * k:(i + 1) * k]).distance_evals
                    for i in range(2))
    else:
        frame = (llr_maxlog_2d if spec.maxlog else llr_exact_2d)(z, grid, n0)
        bits, evals = frame.values.T, frame.distance_evals
    map_evals = bits.shape[1] if spec.remap and ctx.family == "qci" else 0
    return LlrFrame(bits.T, evals, map_evals)
