import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from qcilink import (
    AffineCompensation,
    SimConfig,
    SweepRecord,
    build_qci,
    estimate_affine_compensation,
    gmi_symbol_scores,
    demap,
    horizontal_gap,
    metrics,
    n0_from_psnr,
    run,
    save_constellation,
    scatter_dump,
)
from qcilink.demapper import DEMAPPERS, LLR_CLAMP, LlrFrame, column_block
from qcilink.harness import build_context
from qcilink.metrics import Tally, _crossing_psnr, tally_record

from oracles import logaddexp_gmi_scores


def _rec(psnr, value, trials, metric="ber"):
    return SweepRecord(psnr, metric, value, 0.0, trials, "qam16", "exact2d", 1)


def _sums(x):
    """A block's tally of samples x, as the harness's GMI task returns it."""
    return Tally(x.size, 0, float(np.sum(x)), float(np.sum(x ** 2)))


def _mean_row(blocks):
    """The gmi row of block tallies added in block order, as the harness merges them."""
    return tally_record(10.0, "gmi", Tally(*map(sum, zip(*blocks))), "qci16", "qci_lcd", 1)


def _valid_kinds(ctx):
    """Each demapper kind the context's family accepts, with a compensation where it needs one."""
    comp = AffineCompensation(1.02, np.array([0.003, -0.001]))
    return [(kind, comp if spec.needs_comp else None) for kind, spec in DEMAPPERS.items()
            if ctx.family in spec.families]


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
        # bit-major scoring sums each symbol's softplus bit losses in the same
        # order as a row sum of the (N, m) losses, so the bytes match
        ctx = build_context(SimConfig(family=family, M=M))
        n0 = 10 ** (-1.2 if M == 16 else -1.8)
        for kind, comp in _valid_kinds(ctx):
            scores = gmi_symbol_scores(ctx, kind, n0, 20_000, np.random.default_rng(M), comp)
            idx, y = ctx.draw(20_000, n0, np.random.default_rng(M))
            values = np.ascontiguousarray(demap(kind, y, ctx, n0, comp).values)
            signs = 1.0 - 2.0 * ctx.constellation.labels[idx].astype(np.float64)
            soft = np.maximum(-signs * values, 0.0) + np.log1p(np.exp(-np.abs(values)))
            want = ctx.m - np.sum(soft / math.log(2.0), axis=1)
            assert scores.tobytes() == want.tobytes(), kind

    @pytest.mark.parametrize("family", ["qam", "qci", "file"])
    @pytest.mark.parametrize("M", [16, 64])
    def test_scores_match_the_logaddexp_oracle(self, family, M, tmp_path):
        # the softplus form moves only the rounding of exp and log1p
        path = tmp_path / f"qci{M}.csv"
        save_constellation(build_qci(M), path)
        ctx = build_context(SimConfig(family=family, M=M, constellation_file=str(path)))
        n0 = 10 ** (-1.2 if M == 16 else -1.8)
        for kind, comp in _valid_kinds(ctx):
            scores = gmi_symbol_scores(ctx, kind, n0, 20_000, np.random.default_rng(M + 1), comp)
            idx, y = ctx.draw(20_000, n0, np.random.default_rng(M + 1))
            want = logaddexp_gmi_scores(demap(kind, y, ctx, n0, comp).values, ctx.constellation.labels[idx], ctx.m)
            npt.assert_allclose(scores, want, rtol=0, atol=1e-14, err_msg=kind)

    @pytest.mark.parametrize("family, M", [("qam", 16), ("qci", 64)])
    def test_bit_loss_at_edge_llrs(self, family, M, monkeypatch):
        ctx = build_context(SimConfig(family=family, M=M))
        num, n0, m = 1_000, 0.1, ctx.m
        idx, _ = ctx.draw(num, n0, np.random.default_rng(9))
        right = LLR_CLAMP * (1.0 - 2.0 * ctx.constellation.labels[idx].astype(np.float64))

        def scores_of(values):
            monkeypatch.setattr(metrics, "demap",
                                lambda *a, **k: LlrFrame(np.array(values.T, order="C").T, 0))
            return gmi_symbol_scores(ctx, "exact2d", n0, num, np.random.default_rng(9))

        # log1p(1) rounds to ln 2 itself, so each zero LLR costs exactly one bit
        assert np.log1p(1.0) == math.log(2.0)
        for zero in (0.0, -0.0):
            assert np.all(scores_of(np.full((num, m), zero)) == 0.0), zero
        assert np.all(scores_of(right) == m)
        # wrong signs: each bit costs log2(1 + e^60), to 1 ulp per bit
        bit = math.log1p(math.exp(LLR_CLAMP)) / math.log(2.0)
        npt.assert_allclose(scores_of(-right), m - m * bit, rtol=0, atol=m * np.spacing(bit) + np.spacing(m * bit))

    @pytest.mark.parametrize("M", [16, 64, 256])
    def test_scores_do_not_depend_on_the_chunk_size(self, M, monkeypatch):
        # chunks of 1, 2 and 3 kernel column blocks, each with a ragged last
        # chunk, score byte for byte as one chunk of the whole block
        for family in ("qam", "qci"):
            ctx = build_context(SimConfig(family=family, M=M))
            n0 = 10 ** (-1.2 if M == 16 else -1.8)
            for kind, comp in _valid_kinds(ctx):
                step = column_block(kind, ctx)
                num = 7 * step + 123

                def scores(chunk):
                    monkeypatch.setattr(metrics, "_CHUNK_SYMBOLS", chunk)
                    return gmi_symbol_scores(ctx, kind, n0, num, np.random.default_rng(M), comp).tobytes()

                whole = scores(num)
                for blocks in (1, 2, 3):
                    assert scores(blocks * step) == whole, (family, kind, blocks)

    @pytest.mark.parametrize("chunk", [1, 999, 4_000, 5_000])
    def test_chunked_draw_is_the_one_piece_stream(self, qci16_ctx, chunk):
        # all indices first, then the noise in symbol order, as one draw of 4000 symbols would be
        num, n0 = 4_000, 0.1
        parts = list(qci16_ctx.draw_chunks(num, n0, np.random.default_rng(8), chunk))
        assert [len(i) for i, _ in parts] == [min(chunk, num - a) for a in range(0, num, chunk)]
        rng = np.random.default_rng(8)
        idx = rng.integers(0, 16, size=num)
        y = qci16_ctx.constellation.points[idx] + rng.normal(0.0, math.sqrt(n0 / 2.0), size=(num, 2))
        assert np.concatenate([i for i, _ in parts]).tobytes() == idx.tobytes()
        assert np.concatenate([z for _, z in parts]).tobytes() == y.tobytes()
        one = qci16_ctx.draw(num, n0, np.random.default_rng(8))
        assert (one[0].tobytes(), one[1].tobytes()) == (idx.tobytes(), y.tobytes())

    @pytest.mark.parametrize("family, M, kind", [("qci", 256, "exact2d"), ("qci", 64, "qci_lcd"),
                                                 ("qci", 16, "qci_lcd_compensated")])
    def test_scoring_allocates_no_second_bit_buffer(self, family, M, kind):
        # beyond the (num,) indices and scores, scoring holds one chunk's
        # buffers: the demapper's, or its LLRs and one (m, chunk) buffer of
        # the sign products, as the softplus runs in place on the LLRs. Both
        # are freed before the next chunk is drawn and demapped.
        ctx = build_context(SimConfig(family=family, M=M))
        comp = AffineCompensation(1.02, np.array([0.003, -0.001]))
        num, n0 = 100_000, n0_from_psnr(22.0)
        step = column_block(kind, ctx)
        chunk = step * max(1, metrics._CHUNK_SYMBOLS // step)

        def traced(fn):
            """(current, peak) traced bytes, with fn's result still held."""
            tracemalloc.start()
            try:
                kept = fn()  # noqa: F841
                return tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()

        def draw_and_demap():
            idx, y = ctx.draw(chunk, n0, np.random.default_rng(3))
            return idx, y, demap(kind, y, ctx, n0, comp)

        gmi_symbol_scores(ctx, kind, n0, 20_000, np.random.default_rng(3), comp)  # first-call caches
        held, demap_peak = traced(draw_and_demap)
        _, score_peak = traced(lambda: gmi_symbol_scores(ctx, kind, n0, num, np.random.default_rng(3), comp))
        extra, buf = score_peak - 16 * num, ctx.m * chunk * 8
        assert extra <= max(demap_peak, held) + buf + buf // 2, (extra, demap_peak, held, buf)

    @pytest.mark.parametrize("family, M, kind", [("qci", 256, "exact2d"), ("qci", 64, "qci_lcd"),
                                                 ("qci", 16, "qci_lcd_compensated")])
    def test_scoring_memory_does_not_grow_with_the_block(self, family, M, kind):
        # beyond the (num,) indices and scores, scoring holds one chunk's buffers
        ctx = build_context(SimConfig(family=family, M=M))
        comp = AffineCompensation(1.02, np.array([0.003, -0.001]))
        n0 = n0_from_psnr(22.0)
        gmi_symbol_scores(ctx, kind, n0, 20_000, np.random.default_rng(3), comp)  # first-call caches
        extra = []
        for num in (100_000, 400_000):
            tracemalloc.start()
            try:
                gmi_symbol_scores(ctx, kind, n0, num, np.random.default_rng(3), comp)
                extra.append(tracemalloc.get_traced_memory()[1] - 16 * num)
            finally:
                tracemalloc.stop()
        assert extra[1] <= extra[0] + 64 * 1024, extra

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

    @pytest.mark.parametrize("curve", [
        [(10.0, 0.5), (11.0, 0.5), (12.0, 0.7)],
        [(10.0, 0.4), (11.0, 0.5), (12.0, 0.6), (13.0, 0.45)],
    ], ids=["two-hits", "hit-and-sign-change"])
    def test_exact_hit_counts_as_a_crossing(self, curve):
        with pytest.raises(ValueError, match="monotone"):
            _crossing_psnr(curve, 0.5)

    def test_decreasing_curves_supported(self):
        a = [(10.0, 1e-2), (11.0, 1e-3), (12.0, 1e-4)]
        b = [(p - 0.25, v) for p, v in a]
        assert horizontal_gap(a, b, 3e-3) == pytest.approx(0.25, abs=1e-12)


def _counted(errors, trials):
    """The tally of ``trials`` 0/1 samples with ``errors`` ones, as a BER block returns it."""
    return Tally(trials, errors, errors, errors)


class TestCounterMerges:
    def test_merge_values(self):
        # block tallies merge by summing field by field; tally_record turns the sums into a row
        merged = Tally(*map(sum, zip(_counted(3, 1000), _counted(1, 1000))))
        assert merged == (2000, 4, 4, 4)
        row = tally_record(10, "ber", merged, "qam16", "exact2d", 1)
        assert row.value == pytest.approx(0.002)
        assert row.trials == 2000

    def test_binomial_row(self):
        rec = tally_record(10, "fer", _counted(25, 100), "qci16", "qci_lcd", 3)
        assert rec.value == 0.25
        assert rec.stderr == pytest.approx(math.sqrt(0.25 * 0.75 / 100), rel=1e-15)
        assert (rec.metric, rec.trials) == ("fer", 100)
        zero = tally_record(10, "ber", _counted(0, 5000), "qci16", "qci_lcd", 3)
        assert zero.value == 0.0 and zero.stderr == 0.0

    def test_record_validation(self):
        with pytest.raises(ValueError):
            _rec(10, 1.5, 100)
        with pytest.raises(ValueError):
            _rec(10, 0.0, -1)

    def test_mean_record_of_two_blocks(self, rng):
        x = rng.normal(size=1000)
        row = _mean_row([_sums(x[:400]), _sums(x[400:])])
        assert row.value == pytest.approx(np.mean(x), rel=1e-12)
        assert row.stderr == pytest.approx(np.std(x) / np.sqrt(x.size), rel=1e-12)
        assert (row.metric, row.trials) == ("gmi", 1000)

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
