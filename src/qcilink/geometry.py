"""Radial isomorphism between the square [-1,1]^2 and the disc of radius sqrt(2).

The forward map rescales every point along its ray from the origin so that
the square of half-width t lands on the circle of radius sqrt(2)*t; the
inverse applies the reciprocal radial factor. Both maps are defined on all
of R^2 (noisy received points fall outside the nominal domains) and invert
each other exactly up to floating-point round-off. Both commute with
positive scaling, f(c*p) = c*f(p) for c > 0, because the radial factor
depends only on the direction of p; so they apply unchanged to
peak-normalized coordinates.

The factor is a function of the ratio t = min(|u|,|v|)/max(|u|,|v|) in
[0, 1] alone: sqrt(1 + t^2)/sqrt(2) for the inverse map and its reciprocal
for the forward one. No norm hypot(u, v) is formed, so nothing overflows or
underflows for any finite input, and the factor is within 1 ulp of its
exact value.

Points are array-likes whose last axis holds the two coordinates (u, v);
a single (u, v) pair or any (..., 2) batch is accepted. Both maps work on
the u and v columns and return them column-major: ``out.T`` of an (N, 2)
batch is a contiguous (2, N) array, all u values, then all v values.
"""

from __future__ import annotations

import numpy as np

SQRT2 = float(np.sqrt(2.0))

# divisor floor of t at the origin, where min = max = 0: t = 0/_TINY = 0, and
# every nonzero max, subnormal or not, is at least _TINY and stays as it is
_TINY = float(np.finfo(np.float64).smallest_subnormal)


def _factor(uv: np.ndarray, forward: bool) -> np.ndarray:
    """The radial factor of every (u, v) column of ``uv``, as one (N,) array.

    Written sqrt(2/(1 + t^2)) (forward) and sqrt(0.5 + 0.5*t^2) (inverse):
    the square root halves the relative error of its argument, and no
    rounding follows it, so the factor stays within 1 ulp of its exact
    value. The form sqrt(1 + t^2)/sqrt(2) is off by up to 2.3 ulp.
    """
    u, v = np.abs(uv[0]), np.abs(uv[1])
    mx = np.maximum(u, v)
    t = np.minimum(u, v, out=u)
    t /= np.maximum(mx, _TINY, out=mx)
    t *= t
    if forward:
        t += 1.0
        np.divide(2.0, t, out=t)
    else:
        t *= 0.5
        t += 0.5
    return np.sqrt(t, out=t)


def _radial(p, forward: bool) -> np.ndarray:
    """Scale every point by its radial factor (see the module docstring)."""
    pts = np.asarray(p, dtype=np.float64)
    if pts.ndim == 0 or pts.shape[-1] != 2:
        raise ValueError("expected a point (u, v) or an array with trailing dimension 2")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    uv = pts.reshape(-1, 2).T  # the u and v columns
    return np.multiply(uv, _factor(uv, forward), order="C").T.reshape(pts.shape)


def radial_forward(p) -> np.ndarray:
    """Map square coordinates onto the disc.

    Every point (u, v) is scaled by sqrt(2/(1 + t^2)) =
    sqrt(2)*max(|u|,|v|)/hypot(u, v), so the output stays on the input's ray
    and has Euclidean norm sqrt(2)*max(|u|,|v|). The origin maps to itself.
    Points with |u| == |v| (the square's diagonals) are fixed.
    """
    return _radial(p, forward=True)


def radial_inverse(p) -> np.ndarray:
    """Map disc coordinates back onto the square.

    Applies the reciprocal radial factor sqrt(0.5 + 0.5*t^2) =
    hypot(u, v)/(sqrt(2)*max(|u|,|v|)), with the origin again mapping to
    itself. Composing with :func:`radial_forward` in either order is the
    identity.
    """
    return _radial(p, forward=False)
