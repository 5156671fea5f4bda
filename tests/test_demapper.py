import itertools
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from qcilink import (
    AffineCompensation,
    Constellation,
    build_pam,
    build_qam,
    build_qci,
    DEMAPPER_KINDS,
    custom_context,
    demap,
    demapper,
    estimate_affine_compensation,
    llr_exact_2d,
    llr_maxlog_2d,
    llr_pam,
    n0_from_psnr,
    qam_context,
    qci_context,
)
from qcilink.demapper import DEMAPPERS, LLR_CLAMP

from oracles import add_at_cluster_centers, brute_force_llr_2d, brute_force_llr_pam, brute_force_maxlog_2d

_CONTEXTS = {"qam": qam_context, "qci": qci_context, "file": lambda M: custom_context(build_qci(M))}


def _antipodal_pair():
    return Constellation(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                         np.array([[0], [1]], dtype=np.uint8))


def _random_trials(c, count, seed):
    """(y, n0) draws near the constellation, clear of clamp saturation."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, c.M, size=count)
    n0 = rng.uniform(0.3, 1.5, size=count)
    y = c.points[idx] + rng.normal(0.0, np.sqrt(n0 / 2.0)[:, None], size=(count, 2))
    return y, n0


class TestExact2d:
    def test_antipodal_closed_form(self):
        fr = llr_exact_2d([0.5, 0.0], _antipodal_pair(), 1.0)
        assert fr.values[0, 0] == pytest.approx(4 * 0.5 / 1.0, abs=1e-12)

    def test_symmetric_point_gives_zero_llr(self):
        c = build_qam(16)
        fr = llr_exact_2d([0.0, 0.0], c, 0.7)
        # top bit of each axis splits the constellation symmetrically
        assert fr.values[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert fr.values[0, 2] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("M", [16, 64])
    def test_matches_brute_force(self, M):
        c = build_qam(M)
        y, n0 = _random_trials(c, 200, seed=M)
        labs = c.labels.tolist()
        pts = c.points.tolist()
        for yi, n0i in zip(y, n0):
            got = llr_exact_2d(yi, c, n0i).values[0]
            want = brute_force_llr_2d(yi, pts, labs, n0i)
            npt.assert_allclose(got, want, atol=1e-9)

    def test_distance_counter(self):
        c = build_qam(16)
        fr = llr_exact_2d(np.zeros((37, 2)), c, 0.5)
        assert fr.distance_evals == 37 * 16

    def test_rejects_bad_inputs(self):
        c = build_qam(16)
        with pytest.raises(ValueError, match="positive"):
            llr_exact_2d([0.0, 0.0], c, 0.0)
        with pytest.raises(ValueError):
            llr_exact_2d([0.0, 0.0, 0.0], c, 1.0)
        with pytest.raises(ValueError, match="1D|2D"):
            llr_exact_2d([0.0, 0.0], build_pam(4), 1.0)


class TestMaxlog:
    def test_antipodal_equals_exact(self):
        c = _antipodal_pair()
        y = np.array([[0.3, 0.1], [-0.7, 0.4]])
        npt.assert_allclose(llr_maxlog_2d(y, c, 0.8).values,
                            llr_exact_2d(y, c, 0.8).values, atol=1e-12)

    def test_gap_to_exact_bounded_by_log_half_m(self):
        c = build_qam(16)
        y, n0 = _random_trials(c, 300, seed=1)
        ex = llr_exact_2d(y, c, 0.9).values
        ml = llr_maxlog_2d(y, c, 0.9).values
        assert np.max(np.abs(ex - ml)) <= np.log(8.0) + 1e-12

    def test_agrees_far_from_constellation(self):
        c = build_qam(16)
        y = np.array([[4.0, 4.2]])
        ex = llr_exact_2d(y, c, 0.8).values
        ml = llr_maxlog_2d(y, c, 0.8).values
        npt.assert_allclose(ml, ex, rtol=0.01)

    def test_counter_matches_exact(self):
        c = build_qam(64)
        assert llr_maxlog_2d(np.zeros((5, 2)), c, 1.0).distance_evals == 5 * 64

    @pytest.mark.parametrize("c", [build_qam(16), build_qci(64), build_qci(256)], ids=lambda c: c.name)
    def test_matches_brute_force(self, c):
        y, n0 = _random_trials(c, 200, seed=c.M + 1)
        labs = c.labels.tolist()
        pts = c.points.tolist()
        for yi, n0i in zip(y, n0):
            got = llr_maxlog_2d(yi, c, n0i).values[0]
            want = brute_force_maxlog_2d(yi, pts, labs, n0i)
            npt.assert_allclose(got, want, atol=1e-9)


def _boundary_and_far(points, count, seed):
    """Received points whose LLRs stay partly unclamped at high PSNR.

    ``count`` points near the midpoints of nearest-neighbour pairs, where
    one bit's subsets tie, and ``count`` at radius 1.5 to 3, well outside
    the unit-peak disc, where |y|^2 dwarfs the distance to the nearest point.
    """
    rng = np.random.default_rng(seed)
    d2 = np.sum((points[:, None] - points[None]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    i = rng.integers(0, len(points), size=count)
    mid = 0.5 * (points[i] + points[np.argmin(d2[i], axis=1)]) + rng.normal(0.0, 1e-3, size=(count, 2))
    angle, radius = rng.uniform(0.0, 2 * np.pi, size=count), rng.uniform(1.5, 3.0, size=count)
    return np.concatenate([mid, radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])])


class TestHighPsnr:
    """The exponent product against the loop oracles where rounding costs the most.

    At 28 to 40 dB, with points up to radius 3, the exponents reach 4e3 to
    6e4 before their shift, so an exponent builder that loses digits there
    shows first.
    """

    @pytest.mark.parametrize("M, psnr", [(256, 40.0), (1024, 28.0)])
    def test_2d_kernels_match_the_oracles(self, M, psnr):
        c = qci_context(M).constellation
        n0 = n0_from_psnr(psnr)
        y = _boundary_and_far(c.points, 30, seed=M)
        pts, labs = c.points.tolist(), c.labels.tolist()
        for kernel, oracle in ((llr_exact_2d, brute_force_llr_2d), (llr_maxlog_2d, brute_force_maxlog_2d)):
            want = np.array([oracle(yi, pts, labs, n0) for yi in y])
            assert np.count_nonzero(np.abs(want) < LLR_CLAMP) >= 30
            npt.assert_allclose(kernel(y, c, n0).values, want, rtol=0, atol=1e-10, err_msg=kernel.__name__)

    @pytest.mark.parametrize("M, psnr", [(256, 40.0), (1024, 28.0)])
    def test_pam_matches_the_oracle(self, M, psnr):
        pam = qci_context(M).pam_grid
        n0 = n0_from_psnr(psnr)
        lvls = pam.points
        far = np.linspace(1.2, 3.0, 8)
        rng = np.random.default_rng(M)
        y = np.concatenate([0.5 * (lvls[1:] + lvls[:-1]) + rng.normal(0.0, 1e-3, size=len(lvls) - 1), far, -far])
        want = np.array([brute_force_llr_pam(v, lvls.tolist(), pam.labels.tolist(), n0) for v in y])
        assert np.count_nonzero(np.abs(want) < LLR_CLAMP) >= 15
        npt.assert_allclose(llr_pam(y, pam, n0).values, want, rtol=0, atol=1e-10)


class TestChunking:
    @pytest.mark.parametrize("kind", ["exact2d", "maxlog2d", "qci_remapped_2d", "qci_lcd"])
    def test_uneven_chunks_match_one_chunk(self, kind, monkeypatch):
        n0 = 0.01
        for M in (16, 256, 1024):
            ctx = qci_context(M)
            # row width of the kernel: M points, or sqrt(M) levels per axis
            width = math.isqrt(M) if DEMAPPERS[kind].per_axis else M
            _, y = ctx.draw(1_003, n0, np.random.default_rng(3))
            y_before = y.copy()
            points_before = (ctx.constellation.points.copy(), ctx.qam_grid.points.copy())
            monkeypatch.setattr(demapper, "_BLOCK_ELEMS", 1_003 * width)
            whole = demap(kind, y, ctx, n0).values
            # 77 blocks of 13 rows and a last one of 2; the block size sets the
            # rows of the exact kinds' label products, whose bytes then move
            monkeypatch.setattr(demapper, "_BLOCK_ELEMS", 13 * width)
            blocked = demap(kind, y, ctx, n0).values
            if kind == "maxlog2d":
                assert blocked.tobytes() == whole.tobytes(), f"M={M}"
            else:
                npt.assert_allclose(blocked, whole, rtol=0, atol=1e-12, err_msg=f"M={M}")
            # 6 blocks of 167 rows and a last one of one row, which numpy
            # multiplies through gemv rather than gemm
            monkeypatch.setattr(demapper, "_BLOCK_ELEMS", 167 * width)
            one_row_tail = demap(kind, y, ctx, n0).values
            npt.assert_allclose(one_row_tail, whole, rtol=0, atol=1e-12, err_msg=f"M={M}")
            assert y.tobytes() == y_before.tobytes()
            assert ctx.constellation.points.tobytes() == points_before[0].tobytes()
            assert ctx.qam_grid.points.tobytes() == points_before[1].tobytes()

    @pytest.mark.parametrize("kind, limit_mb", [("exact2d", 16), ("qci_remapped_2d", 16), ("maxlog2d", 16)])
    def test_peak_memory(self, kind, limit_mb):
        # every kernel holds one 0.5 MB block of distances at a time, next to
        # its (N, m) output and the remap kinds' (N, 2) remapped copy
        ctx = qci_context(256)
        n0 = 0.01
        _, y = ctx.draw(40_000, n0, np.random.default_rng(4))
        tracemalloc.start()
        try:
            demap(kind, y, ctx, n0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 1e6


class TestPam:
    def test_closed_form(self):
        fr = llr_pam(0.5, build_pam(2), 1.0)
        assert fr.values[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_symmetry_zero(self):
        fr = llr_pam(0.0, build_pam(4), 0.6)
        assert fr.values[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force(self):
        pam = build_pam(4)
        rng = np.random.default_rng(3)
        labs = pam.labels.tolist()
        lvls = pam.points.tolist()
        for _ in range(200):
            n0 = rng.uniform(0.3, 1.5)
            y = rng.uniform(-1.4, 1.4)
            got = llr_pam(y, pam, n0).values[0]
            npt.assert_allclose(got, brute_force_llr_pam(y, lvls, labs, n0), atol=1e-9)

    def test_monotone_for_two_levels(self):
        ys = np.linspace(-3.0, 3.0, 101)
        vals = llr_pam(ys, build_pam(2), 0.8).values[:, 0]
        assert np.all(np.diff(vals) > 0)

    def test_requires_1d(self):
        with pytest.raises(ValueError, match="1D"):
            llr_pam(0.5, build_qam(16), 1.0)

    def test_writes_its_rows_into_out(self):
        # the per-axis demappers hand each axis k rows of the symbol's (m, N) LLRs
        pam, ys = build_pam(8), np.linspace(-1.5, 1.5, 41)
        bits = np.full((6, 41), np.nan)
        frame = llr_pam(ys, pam, 0.3, out=bits[3:])
        assert np.shares_memory(frame.values, bits)
        assert bits[3:].tobytes() == llr_pam(ys, pam, 0.3).values.T.tobytes()
        assert np.all(np.isnan(bits[:3]))
        with pytest.raises(ValueError, match="shape"):
            llr_pam(ys, pam, 0.3, out=bits)


class TestDecomposition:
    @pytest.mark.parametrize("M", [16, 64])
    def test_equals_exact_2d(self, M):
        ctx = qam_context(M)
        y, n0 = _random_trials(ctx.constellation, 150, seed=M + 1)
        for yi, n0i in zip(y, n0):
            a = llr_exact_2d(yi, ctx.constellation, n0i).values
            b = demap("qam_decomposed", yi, ctx, n0i).values
            npt.assert_allclose(b, a, atol=1e-9)

    def test_counters(self, qam16_ctx):
        y = np.zeros((10, 2))
        assert demap("qam_decomposed", y, qam16_ctx, 1.0).distance_evals == 10 * 8
        assert llr_exact_2d(y, qam16_ctx.constellation, 1.0).distance_evals == 10 * 16

    def test_requires_qam_context(self, qci16_ctx):
        with pytest.raises(ValueError, match="families"):
            demap("qam_decomposed", [0.0, 0.0], qci16_ctx, 1.0)


class TestLcd:
    def test_noiseless_round_trip_signs(self, qci16_ctx):
        tx = qci16_ctx.constellation.points
        fr = demap("qci_lcd", tx, qci16_ctx, 1e-9)
        want_bits = qci16_ctx.constellation.labels
        npt.assert_array_equal(fr.hard_bits(), want_bits)

    def test_identity_compensation_is_noop(self, qci16_ctx, rng):
        y = rng.normal(0.0, 0.6, size=(100, 2))
        plain = demap("qci_lcd", y, qci16_ctx, 0.2).values
        comped = demap("qci_lcd_compensated", y, qci16_ctx, 0.2,
                       comp=AffineCompensation(1.0, np.zeros(2))).values
        npt.assert_array_equal(comped, plain)

    def test_degenerate_on_qam_context(self, qam16_ctx, rng):
        y = rng.normal(0.0, 0.6, size=(50, 2))
        npt.assert_array_equal(demap("qci_lcd", y, qam16_ctx, 0.3).values,
                               demap("qam_decomposed", y, qam16_ctx, 0.3).values)

    def test_hard_decision_agreement_with_ml(self, qci16_ctx, rng):
        # the low-complexity path disagrees with full ML only on a small,
        # shrinking fraction of symbols (measured: 94.2% at 13 dB, 96.3% at 15)
        def agreement(psnr_db):
            n0 = 10 ** (-psnr_db / 10)
            idx = rng.integers(0, 16, size=20_000)
            x = qci16_ctx.constellation.points[idx]
            y = x + rng.normal(0.0, np.sqrt(n0 / 2), size=x.shape)
            lcd = demap("qci_lcd", y, qci16_ctx, n0).hard_bits()
            ml = llr_exact_2d(y, qci16_ctx.constellation, n0).hard_bits()
            return np.all(lcd == ml, axis=1).mean()

        at_waterfall = agreement(13.0)
        above = agreement(15.0)
        assert at_waterfall > 0.92
        assert above > 0.95

    def test_counters_and_map_evals(self, qci16_ctx):
        fr = demap("qci_lcd", np.zeros((10, 2)), qci16_ctx, 1.0)
        assert fr.distance_evals == 10 * 8
        assert fr.map_evals == 10


class TestRemapped2d:
    def test_noiseless_signs(self, qci16_ctx):
        tx = qci16_ctx.constellation.points
        fr = demap("qci_remapped_2d", tx, qci16_ctx, 1e-9)
        npt.assert_array_equal(fr.hard_bits(), qci16_ctx.constellation.labels)

    def test_degenerate_on_qam_context_equals_exact(self, qam16_ctx, rng):
        y = rng.normal(0.0, 0.7, size=(80, 2))
        npt.assert_allclose(demap("qci_remapped_2d", y, qam16_ctx, 0.4).values,
                            llr_exact_2d(y, qam16_ctx.constellation, 0.4).values,
                            atol=1e-12)

    def test_equals_lcd_exactly(self):
        # the Gaussian metric and the product Gray labels factor over I and Q,
        # so joint 2D demapping of the remapped point equals the per-axis one
        # up to rounding (measured: at most 3.6e-12 on 20 000 symbols per
        # point, at 40 dB), with no hard decision moved
        for family, M, psnr in itertools.product(("qam", "qci"), (16, 64, 256, 1024), (3.0, 12.0, 25.0, 40.0)):
            ctx = _CONTEXTS[family](M)
            n0 = n0_from_psnr(psnr)
            _, y = ctx.draw(2_000, n0, np.random.default_rng(M))
            joint = demap("qci_remapped_2d", y, ctx, n0)
            split = demap("qci_lcd", y, ctx, n0)
            where = f"{family}{M} at {psnr} dB"
            npt.assert_allclose(joint.values, split.values, rtol=0, atol=1e-11, err_msg=where)
            npt.assert_array_equal(joint.hard_bits(), split.hard_bits(), err_msg=where)

    def test_counter_is_full_size(self, qci16_ctx):
        fr = demap("qci_remapped_2d", np.zeros((10, 2)), qci16_ctx, 1.0)
        assert fr.distance_evals == 10 * 16
        assert fr.map_evals == 10


class TestCounterLaw:
    @pytest.mark.parametrize("M", [16, 64, 256, 1024, 4096])
    def test_exact_vs_decomposed(self, M):
        qam = qam_context(M)
        qci = qci_context(M)
        y = np.zeros((8, 2))
        assert llr_exact_2d(y, qam.constellation, 1.0).distance_evals / 8 == M
        assert demap("qam_decomposed", y, qam, 1.0).distance_evals / 8 == 2 * np.sqrt(M)
        assert demap("qci_lcd", y, qci, 1.0).distance_evals / 8 == 2 * np.sqrt(M)

    @pytest.mark.parametrize("kind", DEMAPPER_KINDS)
    @pytest.mark.parametrize("family,M", [("qam", 16), ("qam", 64), ("qci", 16), ("qci", 64), ("file", 16)])
    def test_law_reads_off_the_row(self, kind, family, M):
        # per_axis rows cost 2*sqrt(M) distance evals per symbol, the others M;
        # only a remap of a qci context counts inverse-map evaluations
        spec = DEMAPPERS[kind]
        make = {"qam": qam_context, "qci": qci_context, "file": lambda M: custom_context(build_qci(M))}
        ctx = make[family](M)
        _, y = ctx.draw(37, 0.1, np.random.default_rng(M))
        comp = AffineCompensation(1.0, np.zeros(2))
        if family not in spec.families:
            with pytest.raises(ValueError, match="families"):
                demap(kind, y, ctx, 0.1, comp)
            return
        fr = demap(kind, y, ctx, 0.1, comp)
        assert fr.distance_evals == 37 * (2 * math.isqrt(M) if spec.per_axis else M)
        assert fr.map_evals == (37 if spec.remap and family == "qci" else 0)


class TestLayout:
    @pytest.mark.parametrize("kind, family, M", [(k, f, M) for k, spec in DEMAPPERS.items() for f in spec.families
                                                 for M in ((16,) if f == "file" else (16, 64))])
    def test_values_match_the_oracle(self, kind, family, M):
        # every kernel writes bit-major (m, N) LLRs; values is their (N, m) view
        spec = DEMAPPERS[kind]
        ctx = _CONTEXTS[family](M)
        n0 = 0.05 if M == 16 else 0.015
        _, y = ctx.draw(40, n0, np.random.default_rng(M + 5))
        comp = AffineCompensation(1.03, np.array([0.01, -0.02]))
        got = demap(kind, y, ctx, n0, comp).values
        assert got.shape == (40, ctx.m)
        assert got.T.flags.c_contiguous
        z = ctx.unmap(y) if spec.remap else y
        if spec.needs_comp:
            z = comp.alpha * z + comp.beta
        pts = (ctx.qam_grid if spec.remap else ctx.constellation).points.tolist()
        labs = ctx.constellation.labels.tolist()
        lvls, pam_labs = (ctx.pam_grid.points.tolist(), ctx.pam_grid.labels.tolist()) if spec.per_axis else (0, 0)
        for zi, row in zip(z, got):
            if spec.per_axis:
                want = (brute_force_llr_pam(zi[0], lvls, pam_labs, n0)
                        + brute_force_llr_pam(zi[1], lvls, pam_labs, n0))
            elif spec.maxlog:
                want = brute_force_maxlog_2d(zi, pts, labs, n0)
            else:
                want = brute_force_llr_2d(zi, pts, labs, n0)
            npt.assert_allclose(row, want, rtol=0, atol=1e-9)


class TestConventions:
    def test_bit_flip_antisymmetry(self):
        c = build_qam(16)
        flipped = Constellation(c.points, c.labels ^ np.array([0, 1, 0, 0], dtype=np.uint8))
        y, n0 = _random_trials(c, 50, seed=9)
        a = llr_exact_2d(y, c, 0.8).values
        b = llr_exact_2d(y, flipped, 0.8).values
        npt.assert_allclose(b[:, 1], -a[:, 1], atol=1e-12)
        npt.assert_allclose(b[:, [0, 2, 3]], a[:, [0, 2, 3]], atol=1e-12)

    def test_clamp_preserves_sign(self):
        c = build_qam(16)
        y = c.points[5]
        fr = llr_exact_2d(y, c, 1e-6)
        assert np.all(np.abs(fr.values) <= LLR_CLAMP)
        npt.assert_array_equal(fr.hard_bits()[0], c.labels[5])

    def test_values_always_finite(self, qci16_ctx, rng):
        y = rng.normal(0.0, 5.0, size=(200, 2))
        for kind in ("exact2d", "maxlog2d", "qci_lcd", "qci_remapped_2d"):
            vals = demap(kind, y, qci16_ctx, 1e-4).values
            assert np.all(np.isfinite(vals))
            assert np.max(np.abs(vals)) <= LLR_CLAMP


class TestClusterCenters:
    @pytest.mark.parametrize("M", [16, 64, 256, 1024])
    def test_matches_the_add_at_oracle_byte_for_byte(self, M):
        ctx = qci_context(M)
        idx, y = ctx.draw(100_000, n0_from_psnr(15.0), np.random.default_rng(M))
        z = ctx.unmap(y)
        centers, counts = demapper.cluster_centers(idx, z, M)
        want_centers, want_counts = add_at_cluster_centers(idx, z, M)
        assert centers.tobytes() == want_centers.tobytes()
        npt.assert_array_equal(counts, want_counts)

    def test_a_point_never_drawn_gets_nan_and_count_0(self, rng):
        # point 2 of 4 is never drawn
        idx = rng.choice([0, 1, 3], size=1000)
        z = rng.normal(size=(1000, 2))
        idx_before, z_before = idx.copy(), z.copy()
        centers, counts = demapper.cluster_centers(idx, z, 4)
        want_centers, want_counts = add_at_cluster_centers(idx, z, 4)
        assert counts[2] == 0 and np.all(np.isnan(centers[2]))
        assert centers.tobytes() == want_centers.tobytes()
        npt.assert_array_equal(counts, want_counts)
        npt.assert_array_equal(idx, idx_before)
        npt.assert_array_equal(z, z_before)


class TestAffineCompensation:
    def test_noiseless_limit(self, qci16_ctx):
        comp = estimate_affine_compensation(qci16_ctx, 1e-30, 20_000,
                                            np.random.default_rng(0))
        assert comp.alpha == pytest.approx(1.0, abs=1e-9)
        npt.assert_allclose(comp.beta, [0.0, 0.0], atol=1e-9)

    def test_gain_departs_from_unity_at_moderate_noise(self, qci16_ctx):
        comp = estimate_affine_compensation(qci16_ctx, 0.08, 100_000,
                                            np.random.default_rng(1))
        assert abs(comp.alpha - 1.0) > 0.005

    def test_no_spurious_gain_for_undistorted_clouds(self, qam16_ctx):
        comp = estimate_affine_compensation(qam16_ctx, 0.08, 200_000,
                                            np.random.default_rng(2))
        assert comp.alpha == pytest.approx(1.0, abs=0.01)

    def test_deterministic_given_seed(self, qci16_ctx):
        a = estimate_affine_compensation(qci16_ctx, 0.1, 20_000, np.random.default_rng(5))
        b = estimate_affine_compensation(qci16_ctx, 0.1, 20_000, np.random.default_rng(5))
        assert a.alpha == b.alpha
        npt.assert_array_equal(a.beta, b.beta)

    def test_input_validation(self, qci16_ctx):
        with pytest.raises(ValueError, match="10000"):
            estimate_affine_compensation(qci16_ctx, 0.1, 5_000, np.random.default_rng(0))
        with pytest.raises(ValueError, match="positive"):
            estimate_affine_compensation(qci16_ctx, 0.0, 20_000, np.random.default_rng(0))
        with pytest.raises(ValueError, match="alpha"):
            AffineCompensation(0.0, np.zeros(2))
        with pytest.raises(ValueError, match="beta"):
            AffineCompensation(1.0, np.zeros(3))


class TestDispatch:
    def test_unknown_kind(self, qci16_ctx):
        with pytest.raises(ValueError, match="unknown demapper"):
            demap("bogus", [0.0, 0.0], qci16_ctx, 1.0)

    def test_compensated_requires_comp(self, qci16_ctx):
        with pytest.raises(ValueError, match="requires"):
            demap("qci_lcd_compensated", [0.0, 0.0], qci16_ctx, 1.0)

    def test_custom_context_has_no_decomposition(self):
        ctx = custom_context(build_qci(16))
        with pytest.raises(ValueError, match="families"):
            demap("qci_lcd", [0.0, 0.0], ctx, 1.0)
        vals = demap("exact2d", [0.0, 0.0], ctx, 1.0).values
        assert vals.shape == (1, 4)
