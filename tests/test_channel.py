import numpy as np
import numpy.testing as npt
import pytest

from qcilink import (
    ChannelSpec,
    Constellation,
    build_qam,
    normalize_peak,
    power_stats,
    spec_from_psnr,
    transmit,
)


def _ring_stats():
    ang = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    labs = np.array([[int(b) for b in f"{i:03b}"] for i in range(8)], dtype=np.uint8)
    return power_stats(Constellation(pts, labs))


class TestSpecFromPsnr:
    def test_n0_from_psnr(self):
        stats = power_stats(normalize_peak(build_qam(16)))
        spec = spec_from_psnr(10.0, stats)
        assert spec.n0 == pytest.approx(0.1, rel=1e-14)

    def test_qam16_backoff(self):
        stats = power_stats(normalize_peak(build_qam(16)))
        spec = spec_from_psnr(12.0, stats)
        assert spec.obo_db == pytest.approx(10 * np.log10(9 / 5), rel=1e-12)
        assert spec.obo_db == pytest.approx(2.5527, abs=5e-4)
        assert spec.snr_db == pytest.approx(12.0 - spec.obo_db, abs=1e-12)

    def test_constant_envelope_has_zero_backoff(self):
        spec = spec_from_psnr(7.5, _ring_stats())
        assert spec.obo_db == pytest.approx(0.0, abs=1e-12)
        assert spec.snr_db == pytest.approx(7.5)

    def test_requires_peak_normalization(self):
        with pytest.raises(ValueError, match="normalize_peak"):
            spec_from_psnr(10.0, power_stats(build_qam(16)))

    def test_db_round_trips_exact(self):
        stats = power_stats(normalize_peak(build_qam(64)))
        for psnr in (0.0, 10.25, 23.75):
            spec = spec_from_psnr(psnr, stats)
            assert spec.psnr_db - spec.obo_db == pytest.approx(spec.snr_db, abs=1e-12)
            assert -10 * np.log10(spec.n0) == pytest.approx(psnr, abs=1e-12)


class TestChannelSpecInvariants:
    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError, match="positive"):
            ChannelSpec(n0=0.0, psnr_db=10.0, snr_db=8.0, obo_db=2.0)

    def test_rejects_psnr_below_snr(self):
        with pytest.raises(ValueError, match="PSNR"):
            ChannelSpec(n0=0.1, psnr_db=5.0, snr_db=8.0, obo_db=-3.0)

    def test_rejects_inconsistent_backoff(self):
        with pytest.raises(ValueError, match="obo"):
            ChannelSpec(n0=0.1, psnr_db=10.0, snr_db=8.0, obo_db=1.0)


class TestTransmit:
    def test_noiseless_limit(self):
        x = np.array([[0.5, -0.5], [1.0, 0.0]])
        npt.assert_allclose(transmit(x, 1e-30, np.random.default_rng(0)), x, atol=1e-14)

    def test_noise_variance_within_one_percent(self):
        n0 = 0.4
        y = transmit(np.zeros((1_000_000, 2)), n0, np.random.default_rng(1))
        npt.assert_allclose(y.var(axis=0), n0 / 2.0, rtol=0.01)

    def test_noise_mean_and_cross_correlation(self):
        n, n0 = 1_000_000, 0.2
        y = transmit(np.zeros((n, 2)), n0, np.random.default_rng(2))
        sigma = np.sqrt(n0 / 2.0)
        assert np.all(np.abs(y.mean(axis=0)) < 3 * sigma / np.sqrt(n))
        corr = np.corrcoef(y[:, 0], y[:, 1])[0, 1]
        assert abs(corr) < 3 / np.sqrt(n)

    def test_deterministic_given_seed(self):
        x = np.ones((100, 2))
        a = transmit(x, 0.1, np.random.default_rng(42))
        b = transmit(x, 0.1, np.random.default_rng(42))
        npt.assert_array_equal(a, b)

    def test_rejects_non_finite_symbols(self):
        with pytest.raises(ValueError, match="finite"):
            transmit(np.array([[np.nan, 0.0]]), 0.1, np.random.default_rng(0))

    def test_rejects_nonpositive_n0(self):
        for n0 in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="positive"):
                transmit(np.zeros((1, 2)), n0, np.random.default_rng(0))
