import numpy as np
import numpy.testing as npt
import pytest

from qcilink import n0_from_psnr, transmit


class TestN0FromPsnr:
    def test_n0_from_psnr(self):
        assert n0_from_psnr(10.0) == pytest.approx(0.1, rel=1e-14)

    def test_db_round_trips_exact(self):
        for psnr in (0.0, 10.25, 23.75):
            assert -10 * np.log10(n0_from_psnr(psnr)) == pytest.approx(psnr, abs=1e-12)


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
