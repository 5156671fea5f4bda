import math

import numpy as np
import numpy.testing as npt
import pytest

from qcilink import (
    AffineCompensation,
    SimConfig,
    SweepRecord,
    estimate_affine_compensation,
    gmi_symbol_scores,
    demap,
    horizontal_gap,
    run,
    scatter_dump,
)
from qcilink.demapper import DEMAPPERS
from qcilink.harness import build_context
from qcilink.metrics import _crossing_psnr, counted_record, mean_record


def _rec(psnr, value, trials, errors, metric="ber"):
    return SweepRecord(psnr, metric, value, 0.0, trials, errors, "qam16", "exact2d", 1)


def _sums(x):
    """A block's (count, sum, sum of squares), as the harness's GMI task returns them."""
    return x.size, float(np.sum(x)), float(np.sum(x ** 2))


def _mean_row(blocks):
    """The gmi row of block sums added in block order."""
    n, s1, s2 = (sum(col) for col in zip(*blocks))
    return mean_record(10.0, "gmi", n, s1, s2, "qci16", "qci_lcd", 1)


def _gmi(ctx, kind, n0, num, seed, comp=None):
    """Mean GMI score of one block and its standard error."""
    row = _mean_row([_sums(gmi_symbol_scores(ctx, kind, n0, num, np.random.default_rng(seed), comp=comp))])
    return row.value, row.stderr


class TestGmi:
    def test_noiseless_saturates_at_bits_per_symbol(self, qam16_ctx):
        value, _ = _gmi(qam16_ctx, "exact2d", 1e-30, 100_000, 0)
        assert value == pytest.approx(4.0, abs=1e-9)

    def test_heavy_noise_drives_rate_to_zero(self, qam16_ctx):
        value, _ = _gmi(qam16_ctx, "exact2d", 1e6, 100_000, 1)
        assert abs(value) < 0.01

    def test_exact_equals_decomposed_with_shared_draws(self, qam16_ctx):
        a = gmi_symbol_scores(qam16_ctx, "exact2d", 0.15, 100_000, np.random.default_rng(2))
        b = gmi_symbol_scores(qam16_ctx, "qam_decomposed", 0.15, 100_000, np.random.default_rng(2))
        npt.assert_allclose(a, b, atol=1e-9)

    def test_monotone_nonincreasing_in_noise(self, qci16_ctx):
        prev = None
        for n0 in (0.02, 0.05, 0.1, 0.2):
            est = _gmi(qci16_ctx, "qci_lcd", n0, 100_000, 3)
            if prev is not None:
                assert est[0] <= prev[0] + 3 * (est[1] + prev[1])
            prev = est

    def test_matched_dominates_mismatched(self, qci16_ctx):
        for n0 in (0.06, 0.12):
            ml, ml_se = _gmi(qci16_ctx, "exact2d", n0, 100_000, 4)
            lcd, lcd_se = _gmi(qci16_ctx, "qci_lcd", n0, 100_000, 4)
            assert ml >= lcd - 3 * np.hypot(ml_se, lcd_se)

    def test_compensation_not_harmful_at_waterfall(self, qci16_ctx):
        n0 = 10 ** (-1.125)
        comp = estimate_affine_compensation(qci16_ctx, n0, 50_000, np.random.default_rng(5))
        plain, plain_se = _gmi(qci16_ctx, "qci_lcd", n0, 200_000, 6)
        comped, comped_se = _gmi(qci16_ctx, "qci_lcd_compensated", n0, 200_000, 6, comp=comp)
        assert comped >= plain - 3 * np.hypot(plain_se, comped_se)

    @pytest.mark.parametrize("family, M", [("qam", 16), ("qci", 16), ("qam", 64), ("qci", 64)])
    def test_scores_equal_the_per_symbol_expression(self, family, M):
        # bit-major scoring sums each symbol's bit losses in the same order as
        # a row sum of the (N, m) losses, so the bytes match
        ctx = build_context(SimConfig(family=family, M=M))
        n0 = 10 ** (-1.2 if M == 16 else -1.8)
        comp = AffineCompensation(1.02, np.array([0.003, -0.001]))
        for kind, spec in DEMAPPERS.items():
            if family not in spec.families:
                continue
            scores = gmi_symbol_scores(ctx, kind, n0, 20_000, np.random.default_rng(M), comp)
            idx, y = ctx.draw(20_000, n0, np.random.default_rng(M))
            values = np.ascontiguousarray(demap(kind, y, ctx, n0, comp).values)
            signs = 1.0 - 2.0 * ctx.constellation.labels[idx].astype(np.float64)
            want = ctx.m - np.sum(np.logaddexp(0.0, -signs * values) / math.log(2.0), axis=1)
            assert scores.tobytes() == want.tobytes(), kind

    def test_input_validation(self, qam16_ctx):
        # the samples floor is a configuration rule (harness.validate_config)
        with pytest.raises(ValueError, match="positive"):
            gmi_symbol_scores(qam16_ctx, "exact2d", 0.0, 100_000, np.random.default_rng(0))

    def test_deterministic_given_seed(self, qam16_ctx):
        a = gmi_symbol_scores(qam16_ctx, "exact2d", 0.1, 100_000, np.random.default_rng(7))
        b = gmi_symbol_scores(qam16_ctx, "exact2d", 0.1, 100_000, np.random.default_rng(7))
        npt.assert_array_equal(a, b)


class TestHorizontalGap:
    def test_identical_curves_gap_zero(self):
        curve = [(10.0, 0.1), (11.0, 0.4), (12.0, 0.8)]
        assert horizontal_gap(curve, curve, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_synthetic_half_db_shift(self):
        a = [(10.0, 0.1), (11.0, 0.4), (12.0, 0.8)]
        b = [(p - 0.5, v) for p, v in a]
        assert horizontal_gap(a, b, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_antisymmetric(self):
        a = [(10.0, 0.1), (11.0, 0.45), (12.0, 0.8)]
        b = [(10.0, 0.2), (11.0, 0.5), (12.0, 0.9)]
        assert horizontal_gap(a, b, 0.5) == pytest.approx(-horizontal_gap(b, a, 0.5))

    def test_interpolation_is_linear(self):
        curve = [(10.0, 0.0), (12.0, 1.0)]
        assert _crossing_psnr(curve, 0.25) == pytest.approx(10.5)

    def test_exact_grid_hit(self):
        curve = [(10.0, 0.0), (11.0, 0.5), (12.0, 1.0)]
        assert _crossing_psnr(curve, 0.5) == pytest.approx(11.0)

    def test_target_outside_range(self):
        curve = [(10.0, 0.1), (12.0, 0.8)]
        with pytest.raises(ValueError, match="outside"):
            _crossing_psnr(curve, 0.9)

    def test_non_monotone_bracket_rejected(self):
        curve = [(10.0, 0.1), (11.0, 0.8), (12.0, 0.3), (13.0, 0.9)]
        with pytest.raises(ValueError, match="monotone"):
            _crossing_psnr(curve, 0.5)

    def test_decreasing_curves_supported(self):
        a = [(10.0, 1e-2), (11.0, 1e-3), (12.0, 1e-4)]
        b = [(p - 0.25, v) for p, v in a]
        assert horizontal_gap(a, b, 3e-3) == pytest.approx(0.25, abs=1e-12)


class TestCounterMerges:
    def test_merge_values(self):
        # block counters merge by summing; counted_record turns the sums into a row
        blocks = [(3, 1000), (1, 1000)]
        merged = counted_record(10, "ber", sum(e for e, _ in blocks), sum(n for _, n in blocks),
                                "qam16", "exact2d", 1)
        assert merged.value == pytest.approx(0.002)
        assert merged.trials == 2000 and merged.errors == 4

    def test_counted_record(self):
        rec = counted_record(10, "fer", 25, 100, "qci16", "qci_lcd", 3)
        assert rec.value == 0.25
        assert rec.stderr == pytest.approx(math.sqrt(0.25 * 0.75 / 100), rel=1e-15)
        assert (rec.metric, rec.trials, rec.errors) == ("fer", 100, 25)
        zero = counted_record(10, "ber", 0, 5000, "qci16", "qci_lcd", 3)
        assert zero.value == 0.0 and zero.stderr == 0.0

    def test_record_validation(self):
        with pytest.raises(ValueError):
            _rec(10, 1.5, 100, 150)
        with pytest.raises(ValueError):
            _rec(10, 0.0, -1, 0)

    def test_mean_record_of_two_blocks(self, rng):
        x = rng.normal(size=1000)
        row = _mean_row([_sums(x[:400]), _sums(x[400:])])
        assert row.value == pytest.approx(np.mean(x), rel=1e-12)
        assert row.stderr == pytest.approx(np.std(x) / np.sqrt(x.size), rel=1e-12)
        assert (row.metric, row.trials, row.errors) == ("gmi", 1000, 0)

    def test_mean_record_of_one_sample(self):
        row = _mean_row([_sums(np.array([0.7]))])
        assert row.value == 0.7
        assert row.stderr == float("inf")

    def test_mean_record_of_a_block_stream(self, rng):
        x = rng.normal(size=1000)
        row = _mean_row([_sums(x[lo:lo + 250]) for lo in range(0, 1000, 250)])
        assert row.trials == 1000
        assert row.value == pytest.approx(np.mean(x), rel=1e-12)
        assert row.stderr == pytest.approx(np.std(x) / np.sqrt(x.size), rel=1e-12)


class TestScatterDump:
    def test_row_and_center_counts(self, qci16_ctx):
        dump = scatter_dump(qci16_ctx, 0.05, 5000, np.random.default_rng(0))
        assert dump.point_index.size == 5000
        assert dump.centers.shape == (16, 2)
        assert dump.counts.sum() == 5000

    def test_noiseless_points_coincide_with_preimages(self, qci16_ctx):
        dump = scatter_dump(qci16_ctx, 1e-30, 2000, np.random.default_rng(1))
        npt.assert_allclose(dump.remapped, dump.qam_ref, atol=1e-12)
        seen = dump.counts > 0
        npt.assert_allclose(dump.centers[seen], qci16_ctx.qam_grid.points[seen], atol=1e-12)

    def test_corner_cloud_center_biased(self, qci16_ctx):
        # the remapped corner cloud is measurably off its grid preimage
        dump = scatter_dump(qci16_ctx, 0.08, 40_000, np.random.default_rng(2))
        grid = qci16_ctx.qam_grid.points
        corner = int(np.argmax(np.sum(grid ** 2, axis=1)))
        sel = dump.point_index == corner
        cloud = dump.remapped[sel]
        offset = cloud.mean(axis=0) - grid[corner]
        direction = offset / np.linalg.norm(offset)
        proj = cloud @ direction
        sem = proj.std(ddof=1) / np.sqrt(len(proj))
        significance = abs(proj.mean() - grid[corner] @ direction) / sem
        assert significance > 5.0

    def test_csv_files_written(self, tmp_path):
        out = tmp_path / "scatter.csv"
        run(SimConfig(mode="scatter", family="qci", M=16, psnr_start=10.0, psnr_stop=10.0, samples=500,
                      output=str(out)))
        lines = out.read_text().splitlines()
        assert len(lines) == 2 + 500  # header comment + column row + samples
        centers = (tmp_path / "scatter_centers.csv").read_text().splitlines()
        assert len(centers) == 2 + 16

    def test_input_validation(self, qci16_ctx):
        with pytest.raises(ValueError, match="positive"):
            scatter_dump(qci16_ctx, -1.0, 100, np.random.default_rng(0))
        with pytest.raises(ValueError, match="samples"):
            scatter_dump(qci16_ctx, 0.1, 0, np.random.default_rng(0))
