import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from qcilink import (
    Constellation,
    build_pam,
    build_qam,
    build_qci,
    gray_check,
    load_constellation,
    normalize_peak,
    radial_forward,
    save_constellation,
)
from qcilink.constellation import GRAY_REL_TOL, SUPPORTED_PAM_SIZES, SUPPORTED_QAM_SIZES
from qcilink.errors import DataFormatError

from oracles import gray_violations_full_matrix, hamming, mean_symbol_power, nearest_neighbor_pairs


def _peak_power(c):
    return float(np.max(np.sum(c.points ** 2, axis=1)))


class TestPam:
    def test_two_levels(self):
        c = build_pam(2)
        npt.assert_array_equal(c.points, [-1.0, 1.0])
        assert sorted(c.label_strings()) == ["0", "1"]

    def test_four_levels_spacing(self):
        c = build_pam(4)
        npt.assert_allclose(c.points, [-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0], rtol=1e-15)

    def test_four_levels_gray_adjacency(self):
        c = build_pam(4)
        labs = c.label_strings()
        for a, b in zip(labs, labs[1:]):
            assert hamming(a, b) == 1

    @pytest.mark.parametrize("levels", [3, 5, 128, 0, -4])
    def test_unsupported_sizes(self, levels):
        with pytest.raises(ValueError, match="unsupported"):
            build_pam(levels)

    def test_natural_labels_break_gray(self):
        # the 4-PAM points with natural binary labels counting down from +1,
        # the order build_pam uses for its Gray labels
        natural = np.array([[1, 1], [1, 0], [0, 1], [0, 0]], dtype=np.uint8)
        report = gray_check(Constellation(build_pam(4).points, natural))
        assert not report.passed
        assert any(hd == 2 for _, _, hd in report.violations)


class TestQam:
    def test_16qam_geometry(self):
        c = build_qam(16)
        assert c.M == 16 and c.m == 4 and c.dimension == 2
        expected = [(a, b) for a in (-1.0, 1.0) for b in (-1.0, 1.0)]
        expected += [(a / 3, b / 3) for a in (-1.0, 1.0) for b in (-1.0, 1.0)]
        for target in expected:
            dists = np.linalg.norm(c.points - np.asarray(target), axis=1)
            assert dists.min() < 1e-12

    def test_16qam_power_stats_against_direct_sum(self):
        c = build_qam(16)
        peak, avg = _peak_power(c), mean_symbol_power(c.points)
        assert peak == pytest.approx(2.0, abs=1e-15)
        assert avg == pytest.approx(np.mean(np.sum(c.points ** 2, axis=1)), abs=1e-15)
        assert avg == pytest.approx(10.0 / 9.0, abs=1e-12)
        assert peak / avg == pytest.approx(1.8, abs=1e-12)

    def test_64qam_nearest_neighbors_one_bit(self):
        c = build_qam(64)
        labs = c.label_strings()
        for i, j in nearest_neighbor_pairs(c.points):
            assert hamming(labs[i], labs[j]) == 1

    @pytest.mark.parametrize("M", [8, 32, 100, 2048])
    def test_unsupported_sizes(self, M):
        with pytest.raises(ValueError, match="unsupported"):
            build_qam(M)

    @pytest.mark.parametrize("M", [16, 64, 256])
    def test_label_bit_partition(self, M):
        c = build_qam(M)
        counts = c.labels.sum(axis=0)
        npt.assert_array_equal(counts, np.full(c.m, M // 2))

    def test_indices_of_inverts_the_labels(self):
        c = build_qam(16)
        idx = np.random.default_rng(0).integers(0, c.M, size=(3, 5))
        npt.assert_array_equal(c.indices_of(c.labels[idx]), idx)


class TestQci:
    @pytest.mark.parametrize("M", [16, 64, 256])
    def test_pointwise_image_with_same_labels(self, M):
        qam, qci = build_qam(M), build_qci(M)
        npt.assert_array_equal(qci.labels, qam.labels)
        npt.assert_allclose(qci.points, radial_forward(qam.points), rtol=0, atol=0)

    def test_corner_fixed_edge_point_moved(self):
        qam, qci = build_qam(16), build_qci(16)
        corner = np.flatnonzero((qam.points == [1.0, 1.0]).all(axis=1))[0]
        npt.assert_allclose(qci.points[corner], [1.0, 1.0], atol=1e-15)
        edge = np.flatnonzero(np.isclose(qam.points[:, 0], 1.0)
                              & np.isclose(qam.points[:, 1], 1.0 / 3.0))[0]
        npt.assert_allclose(qci.points[edge], [1.341640786, 0.4472135955], rtol=1e-9)

    @pytest.mark.parametrize("M", [16, 64, 256])
    def test_peak_power_invariant_under_map(self, M):
        assert _peak_power(build_qci(M)) == pytest.approx(_peak_power(build_qam(M)), rel=1e-14)
        assert _peak_power(build_qci(M)) == pytest.approx(2.0, rel=1e-14)

    def test_average_power_grows_under_map(self):
        points = build_qci(16).points
        avg = mean_symbol_power(points)
        assert avg > 10.0 / 9.0
        assert avg == pytest.approx(np.mean(np.sum(points ** 2, axis=1)), abs=1e-14)

    @pytest.mark.parametrize("M", [16, 64, 256])
    def test_gray_labeling_preserved(self, M):
        assert gray_check(build_qci(M)).passed


class TestGrayCheck:
    def test_qam_product_code_passes(self):
        assert gray_check(build_qam(64)).passed

    def test_binary_line_fails_at_middle_adjacency(self):
        pts = np.array([0.0, 1.0, 2.0, 3.0])
        labs = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        report = gray_check(Constellation(pts, labs))
        assert not report.passed
        assert (1, 2, 2) in report.violations

    @pytest.mark.parametrize("c", [build_pam(L) for L in SUPPORTED_PAM_SIZES]
                             + [build(M) for build in (build_qam, build_qci)
                                for M in SUPPORTED_QAM_SIZES if M <= 256], ids=lambda c: c.name)
    def test_matches_full_matrix_reference(self, c):
        assert list(gray_check(c).violations) == gray_violations_full_matrix(c.points, c.labels, GRAY_REL_TOL)

    def test_swapped_labels_match_full_matrix_reference(self):
        c = build_qci(64)
        labs = c.labels.copy()
        labs[[9, 30]] = labs[[30, 9]]
        report = gray_check(Constellation(c.points, labs))
        assert not report.passed
        assert list(report.violations) == gray_violations_full_matrix(c.points, labs, GRAY_REL_TOL)

    def test_memory_stays_linear_in_the_points(self):
        # the full (M, M) matrices of M = 1024 would take tens of MB
        c = build_qci(1024)
        tracemalloc.start()
        try:
            assert gray_check(c).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestNormalize:
    def test_peak_one_and_corner_position(self):
        c = normalize_peak(build_qam(16))
        assert _peak_power(c) == pytest.approx(1.0, rel=1e-14)
        corner = c.points[np.argmax(np.sum(c.points ** 2, axis=1))]
        npt.assert_allclose(np.abs(corner), [1 / np.sqrt(2)] * 2, rtol=1e-14)

    def test_idempotent(self):
        once = normalize_peak(build_qam(16))
        twice = normalize_peak(once)
        npt.assert_allclose(twice.points, once.points, rtol=1e-15)
        assert twice.scale == pytest.approx(once.scale, rel=1e-12)

    def test_average_power_after_normalization(self):
        assert mean_symbol_power(normalize_peak(build_qam(16)).points) == pytest.approx(5.0 / 9.0)

    def test_labels_unchanged_and_scale_recorded(self):
        c = build_qam(16)
        n = normalize_peak(c)
        npt.assert_array_equal(n.labels, c.labels)
        assert n.scale == pytest.approx(1 / np.sqrt(2), rel=1e-14)

    def test_degenerate_all_zero(self):
        zero = Constellation(np.array([[0.0, 0.0]]), np.zeros((1, 0), dtype=np.uint8))
        with pytest.raises(ValueError, match="degenerate"):
            normalize_peak(zero)

    def test_single_point_stats(self):
        c = normalize_peak(Constellation(np.array([[1.0, 0.0]]), np.zeros((1, 0), dtype=np.uint8)))
        peak, avg = _peak_power(c), mean_symbol_power(c.points)
        assert peak == avg == peak / avg == 1.0


class TestValidation:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Constellation(np.array([1.0, 1.0]), np.array([[0], [1]], dtype=np.uint8))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Constellation(np.array([-1.0, 1.0]), np.array([[0], [0]], dtype=np.uint8))

    def test_cardinality_label_mismatch(self):
        with pytest.raises(ValueError):
            Constellation(np.array([-1.0, 0.0, 1.0]),
                          np.array([[0, 0], [0, 1], [1, 1]], dtype=np.uint8))

    @pytest.mark.parametrize("points,labels,match", [
        (np.zeros((2, 3)), [[0], [1]], "points must have shape"),
        ([np.nan, 1.0], [[0], [1]], "finite"),
        ([-1.0, 1.0], [0, 1], "labels must have shape"),
        ([-1.0, 1.0], [[0], [2]], "binary"),
    ], ids=["points-shape", "non-finite-point", "labels-shape", "non-binary-label"])
    def test_malformed_arrays_rejected(self, points, labels, match):
        with pytest.raises(ValueError, match=match):
            Constellation(np.asarray(points, dtype=float), np.asarray(labels, dtype=np.uint8))

    def test_points_immutable(self):
        c = build_qam(16)
        with pytest.raises(ValueError):
            c.points[0, 0] = 5.0


class TestCsvRoundTrip:
    @pytest.mark.parametrize("builder", [build_qam, build_qci])
    def test_save_load_identity(self, tmp_path, builder):
        c = builder(16)
        path = tmp_path / "c.csv"
        save_constellation(c, path)
        loaded = load_constellation(path)
        npt.assert_array_equal(loaded.points, c.points)
        npt.assert_array_equal(loaded.labels, c.labels)

    def test_pam_round_trip(self, tmp_path):
        c = build_pam(4)
        path = tmp_path / "pam.csv"
        save_constellation(c, path)
        loaded = load_constellation(path)
        assert loaded.dimension == 1
        npt.assert_array_equal(loaded.points, c.points)

    def test_header_written(self, tmp_path):
        path = tmp_path / "c.csv"
        save_constellation(build_qam(16), path)
        assert path.read_text().startswith("# qci-constellation v1, M=16, dim=2")

    def test_non_power_of_two_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0, 1.0, 0.0, 00\n1, 0.5, 0.0, 01\n2, -1.0, 0.0, 10\n")
        with pytest.raises(DataFormatError, match="power of two"):
            load_constellation(path)

    @pytest.mark.parametrize("text,match", [
        ("0, 1.0, 0.0, 0\n1, -1.0, 0.0, 10\n", "inconsistent lengths"),
        ("0, 1.0, 0.0, 00\n1, -1.0, 0.0, 01\n", "2 rows but labels carry 2 bits"),
    ], ids=["label-lengths", "rows-not-2-to-the-bits"])
    def test_labels_that_do_not_fit_the_rows(self, text, match, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=match):
            load_constellation(path)

    @pytest.mark.parametrize("header,match", [
        ("M=16, dim=2", "header says M=16 but the file holds 2 rows"),
        ("M=x, dim=2", "non-integer point count"),
    ], ids=["count-disagrees", "count-not-an-integer"])
    def test_header_point_count_must_match_the_rows(self, header, match, tmp_path):
        # a truncated file must not load as a smaller constellation
        path = tmp_path / "bad.csv"
        path.write_text(f"# qci-constellation v1, {header}\n0, 1.0, 0.0, 0\n1, -1.0, 0.0, 1\n")
        with pytest.raises(DataFormatError, match=match):
            load_constellation(path)

    def test_duplicate_label_named(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("0, 1.0, 0.0, 1\n1, -1.0, 0.0, 1\n")
        with pytest.raises(DataFormatError, match="'1'"):
            load_constellation(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0, 1.0, 0.0\n1, -1.0, 0.0, 1\n")
        with pytest.raises(DataFormatError, match="malformed"):
            load_constellation(path)

    def test_non_numeric_coordinate(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0, one, 0.0, 0\n1, -1.0, 0.0, 1\n")
        with pytest.raises(DataFormatError, match="non-numeric"):
            load_constellation(path)

    def test_bad_label_characters(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0, 1.0, 0.0, 0x\n1, -1.0, 0.0, 10\n")
        with pytest.raises(DataFormatError, match="bit string"):
            load_constellation(path)
