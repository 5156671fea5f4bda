"""AWGN channel with peak-power accounting.

The working point is specified as PSNR, the ratio of peak signal power to
total noise power. With the transmitted constellation peak-normalized to 1,
PSNR = 1/n0 and the average-power operating point follows from the
constellation's back-off: SNR = PSNR - OBO in dB, where OBO equals the PAPR
in dB. The saturating amplifier itself is a no-op here because transmitted
points never exceed the peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import PowerStats

_PEAK_TOL = 1e-9


@dataclass(frozen=True)
class ChannelSpec:
    """Noise level plus the PSNR/SNR/OBO bookkeeping for one operating point.

    n0 is the total noise power (variance n0/2 per dimension).
    """

    n0: float
    psnr_db: float
    snr_db: float
    obo_db: float
    peak_power: float = 1.0

    def __post_init__(self):
        if self.n0 <= 0.0:
            raise ValueError("n0 must be positive")
        if self.psnr_db < self.snr_db - 1e-9:
            raise ValueError("PSNR must be >= SNR")
        if abs(self.snr_db - (self.psnr_db - self.obo_db)) > 1e-9:
            raise ValueError("require snr_db = psnr_db - obo_db")


def spec_from_psnr(psnr_db: float, stats: PowerStats) -> ChannelSpec:
    """Channel spec for a peak-normalized constellation at a given PSNR (dB).

    n0 = 10^(-psnr_db/10); OBO is the constellation's PAPR in dB and
    SNR = PSNR - OBO.
    """
    if abs(stats.peak_power - 1.0) > _PEAK_TOL:
        raise ValueError(
            f"peak_power must be 1 (got {stats.peak_power}); apply normalize_peak first"
        )
    n0 = float(10.0 ** (-psnr_db / 10.0))
    obo_db = float(10.0 * np.log10(stats.papr))
    return ChannelSpec(n0=n0, psnr_db=float(psnr_db), snr_db=float(psnr_db) - obo_db, obo_db=obo_db)


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
