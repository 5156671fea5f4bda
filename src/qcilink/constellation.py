"""PAM/QAM/QCI constellation construction, Gray labeling checks, and CSV I/O.

Canonical coordinates: PAM levels live on [-1, 1] and square QAM on
[-1, 1]^2, so the QCI disc image has radius sqrt(2) and both QAM and QCI
share peak power 2 before normalization. Peak normalization (max |x|^2 = 1)
is applied as a separate final step before the channel.

Labeling convention: binary-reflected Gray code per axis, I bits before Q
bits in the concatenated QAM label.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .geometry import radial_forward

SUPPORTED_PAM_SIZES = (2, 4, 8, 16, 32, 64)
SUPPORTED_QAM_SIZES = (16, 64, 256, 1024, 4096)

CSV_HEADER_PREFIX = "# qci-constellation v1"
# neighbors within this relative margin of a point's minimum distance are nearest
GRAY_REL_TOL = 1e-9


@dataclass(frozen=True)
class Constellation:
    """An ordered set of signal points with a one-to-one bit labeling.

    points : (M,) float64 for one dimension, (M, 2) for two
    labels : (M, m) uint8, one row per point, all rows distinct
    scale  : cumulative scaling applied relative to as-built coordinates
    """

    points: np.ndarray
    labels: np.ndarray
    name: str = ""
    scale: float = 1.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.uint8)
        if pts.ndim not in (1, 2) or (pts.ndim == 2 and pts.shape[1] != 2):
            raise ValueError("points must have shape (M,) or (M, 2)")
        if not np.all(np.isfinite(pts)):
            raise ValueError("constellation points must be finite")
        if labs.ndim != 2 or labs.shape[0] != pts.shape[0]:
            raise ValueError("labels must have shape (M, m)")
        if np.any(labs > 1):
            raise ValueError("labels must be binary")
        M, m = labs.shape
        if M != 2 ** m:
            raise ValueError(f"cardinality {M} does not match 2^{m} labels")
        codes = self._codes_of(labs)
        if len(np.unique(codes)) != M:
            raise ValueError("labels must be distinct")
        flat = pts.reshape(M, -1)
        if len(np.unique(flat, axis=0)) != M:
            raise ValueError("constellation points must be distinct")
        pts.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labs)

    @staticmethod
    def _codes_of(labels: np.ndarray) -> np.ndarray:
        """Integer value of each (..., m) label, most significant bit first."""
        m = labels.shape[-1]
        weights = 1 << np.arange(m - 1, -1, -1, dtype=np.int64)
        return labels.astype(np.int64) @ weights

    @property
    def M(self) -> int:
        return self.labels.shape[0]

    @property
    def m(self) -> int:
        return self.labels.shape[1]

    @property
    def dimension(self) -> int:
        return 1 if self.points.ndim == 1 else 2

    def indices_of(self, bits: np.ndarray) -> np.ndarray:
        """Index of the point labeled by each row of ``bits``, an (..., m) bit array."""
        table = np.empty(self.M, dtype=np.int64)
        table[self._codes_of(self.labels)] = np.arange(self.M)
        return table[self._codes_of(bits)]

    def label_strings(self) -> list[str]:
        return ["".join(str(b) for b in row) for row in self.labels]


@dataclass(frozen=True)
class GrayReport:
    passed: bool
    violations: tuple  # (point index, neighbor index, hamming distance) triples


def _gray_sequence(m: int) -> np.ndarray:
    """Binary-reflected Gray codes for indices 0..2^m-1 as an (M, m) bit array."""
    idx = np.arange(2 ** m, dtype=np.int64)
    g = idx ^ (idx >> 1)
    shifts = np.arange(m - 1, -1, -1, dtype=np.int64)
    return ((g[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def build_pam(levels: int) -> Constellation:
    """Uniformly spaced PAM on [-1, 1] with reflected-Gray labels.

    The Gray sequence runs from the positive end down, so the all-zeros
    label sits at +1 and the LLR of the top bit is positive for positive
    received values (2-PAM reduces to the familiar 4y/N0).
    """
    if levels not in SUPPORTED_PAM_SIZES:
        raise ValueError(f"unsupported PAM size {levels}; choose from {SUPPORTED_PAM_SIZES}")
    pts = np.linspace(-1.0, 1.0, levels)
    labs = _gray_sequence(levels.bit_length() - 1)[::-1]
    return Constellation(pts, labs, name=f"pam{levels}")


def build_qam(M: int) -> Constellation:
    """Square QAM on [-1, 1]^2: the product of two sqrt(M)-PAM constellations.

    Point (i, j) pairs I level i with Q level j; its label is the I-level
    Gray label followed by the Q-level Gray label.
    """
    if M not in SUPPORTED_QAM_SIZES:
        raise ValueError(f"unsupported QAM size {M}; choose from {SUPPORTED_QAM_SIZES}")
    side = int(round(np.sqrt(M)))
    pam = build_pam(side)
    ii, jj = np.divmod(np.arange(M), side)
    pts = np.column_stack([pam.points[ii], pam.points[jj]])
    labs = np.hstack([pam.labels[ii], pam.labels[jj]])
    return Constellation(pts, labs, name=f"qam{M}")


def build_qci(M: int) -> Constellation:
    """Disc-shaped image of square QAM under the radial map, labels unchanged.

    Peak power is invariant (the square's corners already sit on the disc
    boundary), and the Gray labeling survives the map.
    """
    qam = build_qam(M)
    return Constellation(radial_forward(qam.points), qam.labels, name=f"qci{M}")


def normalize_peak(c: Constellation) -> Constellation:
    """Uniformly rescale so that max |x|^2 = 1; idempotent.

    The applied factor accumulates into ``scale``, which sizes the QAM
    preimage grid and the PAM of a demap context. A QCI context takes the
    QCI's factor, since the inverse map returns a received point on the
    transmitted scale; the radial map keeps the peak only up to rounding,
    so from M = 256 on that factor is 0.7071067811865474 against
    0.7071067811865475 for QAM.
    """
    p = c.points ** 2 if c.dimension == 1 else np.sum(c.points ** 2, axis=1)
    peak = float(np.max(p))
    if peak <= 0.0:
        raise ValueError("cannot peak-normalize a degenerate all-zero constellation")
    factor = 1.0 / np.sqrt(peak)
    return replace(c, points=c.points * factor, scale=c.scale * factor)


def gray_check(c: Constellation) -> GrayReport:
    """Check that every nearest neighbor of every point differs in exactly one bit.

    All neighbors within ``GRAY_REL_TOL`` (relative) of the minimum distance
    count as nearest, since mapped constellations have irrational spacings and
    exact ties do not survive floating point.
    """
    pts = c.points.reshape(c.M, -1)
    violations = []
    for i in range(c.M):  # one (M,) distance row at a time, so memory stays O(M)
        d2 = np.sum((pts[i] - pts) ** 2, axis=-1)
        d2[i] = np.inf
        neighbors = np.flatnonzero(d2 <= d2.min() * (1.0 + GRAY_REL_TOL) ** 2)
        hd = np.count_nonzero(c.labels[neighbors] != c.labels[i], axis=-1)
        violations += [(i, int(j), int(h)) for j, h in zip(neighbors, hd) if h != 1]
    return GrayReport(passed=not violations, violations=tuple(violations))


def save_constellation(c: Constellation, path) -> None:
    """Write ``index, I, Q, label_bits`` rows with a format header.

    Coordinates are written with 17 significant digits so a save/load round
    trip reproduces them exactly.
    """
    lines = [f"{CSV_HEADER_PREFIX}, M={c.M}, dim={c.dimension}"]
    labels = c.label_strings()
    for i in range(c.M):
        if c.dimension == 1:
            u, v = c.points[i], 0.0
        else:
            u, v = c.points[i]
        lines.append(f"{i}, {u:.17g}, {v:.17g}, {labels[i]}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_constellation(path) -> Constellation:
    """Read a constellation CSV written by :func:`save_constellation`.

    Validates power-of-two cardinality, distinct labels of uniform length,
    and well-formed rows. The header is optional; an ``M=`` in it must be an
    integer equal to the number of rows, a ``dim=`` in it must be 1 or 2,
    and ``dim=1`` requires every Q coordinate to be zero.
    """
    try:
        with open(path) as fh:
            raw = [ln.strip() for ln in fh]
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"constellation file is not text: {exc}") from exc
    rows = []
    dim_hint = m_hint = None
    for ln in raw:
        if not ln:
            continue
        if ln.startswith("#"):
            if ln.startswith(CSV_HEADER_PREFIX):
                for part in ln.split(","):
                    part = part.strip()
                    if part.startswith("M="):
                        try:
                            m_hint = int(part[2:])
                        except ValueError as exc:
                            raise DataFormatError(f"non-integer point count in header: {ln!r}") from exc
                    elif part.startswith("dim="):
                        try:
                            dim_hint = int(part[4:])
                        except ValueError as exc:
                            raise DataFormatError(f"non-integer dimension in header: {ln!r}") from exc
                        if dim_hint not in (1, 2):
                            raise DataFormatError(f"header dimension must be 1 or 2: {ln!r}")
            continue
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) != 4:
            raise DataFormatError(f"malformed row (expected 4 fields): {ln!r}")
        try:
            u, v = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise DataFormatError(f"non-numeric coordinate in row: {ln!r}") from exc
        bits = parts[3]
        if not bits or any(ch not in "01" for ch in bits):
            raise DataFormatError(f"label must be a nonempty bit string: {ln!r}")
        rows.append((u, v, bits))
    M = len(rows)
    if m_hint is not None and m_hint != M:
        raise DataFormatError(f"header says M={m_hint} but the file holds {M} rows")
    if M == 0 or M & (M - 1):
        raise DataFormatError(f"cardinality not a power of two: {M} rows")
    m = len(rows[0][2])
    if any(len(bits) != m for _, _, bits in rows):
        raise DataFormatError("label bit strings have inconsistent lengths")
    if M != 2 ** m:
        raise DataFormatError(f"{M} rows but labels carry {m} bits")
    seen = {}
    for i, (_, _, bits) in enumerate(rows):
        if bits in seen:
            raise DataFormatError(f"duplicate label {bits!r} at rows {seen[bits]} and {i}")
        seen[bits] = i
    labs = np.array([[int(ch) for ch in bits] for _, _, bits in rows], dtype=np.uint8)
    if dim_hint == 1 and any(v != 0.0 for _, v, _ in rows):
        raise DataFormatError("header says dim=1 but a row has a nonzero Q coordinate")
    if dim_hint == 1 or (dim_hint is None and all(v == 0.0 for _, v, _ in rows)):
        pts = np.array([u for u, _, _ in rows])
    else:
        pts = np.array([(u, v) for u, v, _ in rows])
    try:
        return Constellation(pts, labs, name=Path(path).stem)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from exc
