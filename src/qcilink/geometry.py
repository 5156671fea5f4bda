"""Radial isomorphism between the square [-1,1]^2 and the disc of radius sqrt(2).

The forward map rescales every point along its ray from the origin so that
the square of half-width t lands on the circle of radius sqrt(2)*t; the
inverse applies the reciprocal radial factor. Both maps are defined on all
of R^2 (noisy received points fall outside the nominal domains) and invert
each other exactly up to floating-point round-off. Both commute with
positive scaling, f(c*p) = c*f(p) for c > 0, because the radial factor
depends only on the direction of p; so they apply unchanged to
peak-normalized coordinates.

Points are array-likes whose last axis holds the two coordinates (u, v);
a single (u, v) pair or any (..., 2) batch is accepted.
"""

from __future__ import annotations

import numpy as np

SQRT2 = float(np.sqrt(2.0))

# Below this scale the radial factor is 0/0; the origin maps to itself and
# continuity forces the same for denormal-range inputs.
_ZERO_EPS = 1e-300


def _checked_points(p) -> np.ndarray:
    pts = np.asarray(p, dtype=np.float64)
    if pts.ndim == 0 or pts.shape[-1] != 2:
        raise ValueError("expected a point (u, v) or an array with trailing dimension 2")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    return pts


def radial_forward(p) -> np.ndarray:
    """Map square coordinates onto the disc.

    Every nonzero point (u, v) is scaled by sqrt(2)*max(|u|,|v|)/hypot(u, v),
    so the output stays on the input's ray and has Euclidean norm
    sqrt(2)*max(|u|,|v|). The origin maps to itself. Points with |u| == |v|
    (the square's diagonals) are fixed.
    """
    pts = _checked_points(p)
    mx = np.max(np.abs(pts), axis=-1)
    r = np.hypot(pts[..., 0], pts[..., 1])
    zero = mx < _ZERO_EPS
    scale = np.where(zero, 0.0, SQRT2 * mx / np.where(zero, 1.0, r))
    return pts * scale[..., None]


def radial_inverse(p) -> np.ndarray:
    """Map disc coordinates back onto the square.

    Applies the reciprocal radial factor hypot(u, v)/(sqrt(2)*max(|u|,|v|)),
    with the origin again mapping to itself. Composing with
    :func:`radial_forward` in either order is the identity.
    """
    pts = _checked_points(p)
    mx = np.max(np.abs(pts), axis=-1)
    r = np.hypot(pts[..., 0], pts[..., 1])
    zero = mx < _ZERO_EPS
    scale = np.where(zero, 0.0, r / (SQRT2 * np.where(zero, 1.0, mx)))
    return pts * scale[..., None]
