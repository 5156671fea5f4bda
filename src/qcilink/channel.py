"""AWGN channel with peak-power accounting.

The working point is specified as PSNR, the ratio of peak signal power to
total noise power. With the transmitted constellation peak-normalized to 1,
PSNR = 1/n0 and the average-power operating point follows from the
constellation's back-off: SNR = PSNR - OBO in dB, where OBO equals the PAPR
in dB. The saturating amplifier itself is a no-op here because transmitted
points never exceed the peak.
"""

from __future__ import annotations

import numpy as np


def n0_from_psnr(psnr_db: float) -> float:
    """Total noise power n0 = 10^(-psnr_db/10) of a peak-normalized constellation at a PSNR in dB."""
    return float(10.0 ** (-psnr_db / 10.0))


def transmit(symbols: np.ndarray, n0: float, rng: np.random.Generator) -> np.ndarray:
    """Add white Gaussian noise of total power n0 (variance n0/2 per dimension).

    This is the simulator's one noise draw. Deterministic given the
    generator state; workers should derive independent streams from
    (master seed, block index).
    """
    x = np.asarray(symbols, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("symbols must be finite")
    if not n0 > 0.0:
        raise ValueError("n0 must be positive")
    return x + rng.normal(0.0, np.sqrt(n0 / 2.0), size=x.shape)
