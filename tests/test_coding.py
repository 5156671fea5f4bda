import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from qcilink import (
    ParityCheckCode,
    bundled_code,
    coding,
    decode_bp,
    encode,
    interleave,
    interleaver_permutation,
    load_alist,
)
from oracles import (check_replies, deinterleave, flooding_decode_loops, syndrome_int64,
                     systematic_encode_int64)
from qcilink.coding import _gf2_rref, info_bits_of
from qcilink.errors import DataFormatError

# n = 20, rate 1/2, variable degrees 1-5 and check degrees 3-8: the decoder
# takes the variables out of code order, and every sum stays within the 8
# terms up to which numpy's reduceat adds in the oracle's order
IRREGULAR_CHECKS = [
    [0, 9, 15, 16, 19], [5, 10, 16], [1, 2, 5, 6, 7, 15, 16, 17], [3, 4, 10, 11, 14, 15, 17],
    [5, 8, 9, 10, 13, 14, 19], [1, 2, 3, 8, 9, 11, 12, 16], [3, 4, 5, 10, 15, 17, 19],
    [4, 10, 14, 19], [4, 5, 11, 13, 14, 17, 19], [2, 3, 4, 6, 15, 17, 18],
]


# n = 12, rate 1/2, check degrees 1, 2, 4, 5, 6 and 7: every check but the
# last leaves filler slots in the decoder's layout, and the degree-1 check
# replies with the empty leave-one-out product
HANDBUILT_CHECKS = [[0], [1, 2], [2, 3, 4, 5], [0, 3, 6, 7, 8], [1, 4, 6, 9, 10, 11],
                    [2, 5, 7, 8, 9, 10, 11]]


@pytest.fixture(scope="module")
def irregular_code():
    return ParityCheckCode(20, IRREGULAR_CHECKS, name="irregular_n20")


@pytest.fixture(scope="module")
def handbuilt_code():
    return ParityCheckCode(12, HANDBUILT_CHECKS, name="handbuilt_n12")


def _noisy_llrs(code, frames, sigma, seed):
    """BPSK LLRs of seeded random codewords over AWGN with noise deviation sigma."""
    rng = np.random.default_rng(seed)
    cw = encode(code, rng.integers(0, 2, size=(frames, code.k), dtype=np.uint8))
    return 2.0 * (1.0 - 2.0 * cw + sigma * rng.standard_normal(cw.shape)) / sigma ** 2


class TestPegConstruction:
    def test_toy_code_shape_and_rank(self, toy_code):
        assert toy_code.n == 48 and toy_code.num_checks == 24 and toy_code.k == 24
        assert toy_code.name == "peg_dv3_n48"
        npt.assert_array_equal(toy_code.var_deg, np.full(48, 3))
        assert len(_gf2_rref(toy_code.dense_matrix())[1]) == 24


class TestAlistIo:
    def test_extra_entries_beyond_degree_rejected(self, tmp_path):
        path = tmp_path / "bad.alist"
        path.write_text(
            "3 2\n2 2\n1 2 1\n2 2\n"
            "1 2\n2 0\n1 0\n"   # variable 0 declares degree 1 but lists two checks
            "1 2\n2 3\n"
        )
        with pytest.raises(DataFormatError, match="degree"):
            load_alist(path)

    def test_mismatched_adjacency_rejected(self, tmp_path):
        path = tmp_path / "bad.alist"
        path.write_text(
            "3 2\n1 2\n1 1 1\n2 1\n"
            "1\n1\n2\n"
            "1 2\n1 0\n"  # check side disagrees with variable side
        )
        with pytest.raises(DataFormatError, match="disagree"):
            load_alist(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.alist"
        path.write_text("3 2\n1 2\n1 1 1\n2 1\n1\n")
        with pytest.raises(DataFormatError, match="lines"):
            load_alist(path)

    def test_non_integer_token_rejected(self, tmp_path):
        path = tmp_path / "bad.alist"
        path.write_text("3 x\n1 2\n1 1 1\n2 1\n1\n1\n2\n1 2\n3 0\n")
        with pytest.raises(DataFormatError, match="token"):
            load_alist(path)

    def test_out_of_range_index_rejected(self, tmp_path):
        path = tmp_path / "bad.alist"
        path.write_text(
            "3 2\n1 2\n1 1 1\n2 1\n"
            "1\n5\n2\n"
            "1 2\n3 0\n"
        )
        with pytest.raises(DataFormatError, match="range"):
            load_alist(path)

    # each file breaks one field of a valid alist with 3 variables and 2 checks
    @pytest.mark.parametrize("text,match", [
        ("3 2\n1 2\n1 1 1\n", "too short"),
        ("3\n1 2\n1 1 1\n2 1\n1\n1\n2\n1 2\n3 0\n", "'n m'"),
        ("0 2\n1 2\n1 1 1\n2 1\n1\n1\n2\n1 2\n3 0\n", "positive"),
        ("3 2\n1\n1 1 1\n2 1\n1\n1\n2\n1 2\n3 0\n", "max_dv max_dc"),
        ("3 2\n1 2\n1 1\n2 1\n1\n1\n2\n1 2\n3 0\n", "3 variable degrees"),
        ("3 2\n1 2\n1 1 1\n2\n1\n1\n2\n1 2\n3 0\n", "2 check degrees"),
        ("3 2\n1 1\n1 1 1\n2 1\n1\n1\n2\n1 2\n3 0\n", "maximum degree exceeded"),
        ("3 2\n1 2\n1 0 1\n2 1\n1\n0\n2\n1 2\n3 0\n", "degree >= 1"),
        ("3 2\n1 2\n1 1 1\n2 1\n1\n1\n2\n1 1\n3 0\n", "repeats an index"),
    ], ids=["too-short", "size-line", "nonpositive-size", "max-degree-line", "variable-degree-count",
            "check-degree-count", "max-degree-exceeded", "zero-variable-degree", "repeated-index"])
    def test_malformed_header_or_list_rejected(self, text, match, tmp_path):
        path = tmp_path / "bad.alist"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=match):
            load_alist(path)

    def test_rank_deficient_matrix_is_a_format_error(self, rank_deficient_alist):
        with pytest.raises(DataFormatError, match="rank deficient"):
            load_alist(rank_deficient_alist)


class TestEncoder:
    def test_all_zero_info_gives_all_zero_codeword(self, toy_code):
        cw = encode(toy_code, np.zeros(toy_code.k, dtype=np.uint8))
        assert not cw.any()

    def test_every_codeword_satisfies_checks(self, toy_code, rng):
        u = rng.integers(0, 2, size=(32, toy_code.k), dtype=np.uint8)
        cw = encode(toy_code, u)
        assert not syndrome_int64(toy_code.dense_matrix(), cw).any()

    def test_linearity_on_random_pairs(self, toy_code, rng):
        for _ in range(20):
            a = rng.integers(0, 2, toy_code.k, dtype=np.uint8)
            b = rng.integers(0, 2, toy_code.k, dtype=np.uint8)
            npt.assert_array_equal(encode(toy_code, a ^ b),
                                   encode(toy_code, a) ^ encode(toy_code, b))

    def test_wrong_length_rejected(self, toy_code):
        with pytest.raises(ValueError, match="information bits"):
            encode(toy_code, np.zeros(toy_code.k + 1, dtype=np.uint8))

    def test_rank_deficient_matrix_rejected(self):
        with pytest.raises(ValueError, match="rank deficient"):
            ParityCheckCode(4, [[0, 1], [0, 1], [2, 3]])

    # the toy code has k = 24 (one partial word); the bundled code has
    # k = 1494 (23 full words and a partial last one)
    @pytest.mark.parametrize("which", ["toy", "bundled"])
    @pytest.mark.parametrize("shape", [(), (25,)], ids=["1d", "batched"])
    def test_matches_int64_product(self, which, shape, toy_code, rng):
        code = toy_code if which == "toy" else bundled_code()
        H, pivots = _gf2_rref(code.dense_matrix())
        info_cols = np.setdiff1d(np.arange(code.n), pivots)
        u = rng.integers(0, 2, size=shape + (code.k,), dtype=np.uint8)
        cw = encode(code, u)
        assert cw.shape == shape + (code.n,) and cw.dtype == np.uint8
        expected = systematic_encode_int64(H, pivots, info_cols, u)
        npt.assert_array_equal(np.atleast_2d(cw), expected)

    def test_encoder_is_derived_when_the_code_is_built(self, toy_alist, monkeypatch, rng):
        code = load_alist(toy_alist)

        def no_rref(H):
            pytest.fail("the encoder was derived after the code was built")

        monkeypatch.setattr(coding, "_gf2_rref", no_rref)
        u = rng.integers(0, 2, size=(3, code.k), dtype=np.uint8)
        cw = encode(code, u)
        assert not syndrome_int64(code.dense_matrix(), cw).any()
        npt.assert_array_equal(info_bits_of(code, cw), u)

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_non_binary_input_rejected(self, bad, toy_code):
        u = np.zeros((3, toy_code.k), dtype=np.asarray(bad).dtype)
        u[1, 5] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            encode(toy_code, u)
        with pytest.raises(ValueError, match="0 or 1"):
            encode(toy_code, u[1])

    def test_bool_input_accepted(self, toy_code, rng):
        u = rng.integers(0, 2, size=(4, toy_code.k), dtype=np.uint8)
        npt.assert_array_equal(encode(toy_code, u.astype(bool)), encode(toy_code, u))


# block sizes of the streams that the decoder tests feed to decode_bp:
# both run longer than its batch of coding.BP_BATCH_FRAMES frames
_STREAMS = {"blocks25+25+10": (25, 25, 10), "blocks3x20": (3,) * 20}


def _blocks(llr, sizes):
    """An iterator over consecutive blocks of ``llr``'s frames, of the given sizes."""
    return iter(np.split(llr, np.cumsum(sizes)[:-1]))


def _assert_frames_decode_alone(code, llr, sizes, distinct_iters):
    """decode_bp on ``llr``, as one array or (``sizes``) as a stream of blocks, gives each frame's lone decode."""
    bits, conv, iters = decode_bp(code, llr if sizes is None else _blocks(llr, sizes))
    assert len(np.unique(iters)) > distinct_iters and not conv.all()
    assert (iters[~conv] == 50).all()
    for f in range(len(llr)):
        b, c, i = decode_bp(code, llr[f])
        assert bits[f].tobytes() == b.tobytes()
        assert (conv[f], iters[f]) == (c, i)


class TestDecoder:
    def test_noiseless_codeword_converges_first_iteration(self, toy_code, rng):
        u = rng.integers(0, 2, size=(4, toy_code.k), dtype=np.uint8)
        cw = encode(toy_code, u)
        llr = (1.0 - 2.0 * cw) * 60.0
        bits, conv, iters = decode_bp(toy_code, llr, max_iters=10)
        assert conv.all() and (iters == 1).all()
        npt.assert_array_equal(bits, cw)

    def test_single_weak_flip_corrected(self, toy_code, rng):
        cw = encode(toy_code, rng.integers(0, 2, toy_code.k, dtype=np.uint8))
        llr = (1.0 - 2.0 * cw) * 8.0
        llr[11] = -0.5 * llr[11]
        bits, conv, _ = decode_bp(toy_code, llr, max_iters=20)
        assert conv
        npt.assert_array_equal(bits, cw)

    # +-1e300 is outside the float32 range: it must not overflow the decoder's cast
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("magnitude", [60.0, 1e30, 1e300, np.inf])
    def test_saturated_llrs_decode_in_one_iteration(self, magnitude, toy_code, rng):
        cw = encode(toy_code, rng.integers(0, 2, size=(4, toy_code.k), dtype=np.uint8))
        bits, conv, iters = decode_bp(toy_code, (1.0 - 2.0 * cw) * magnitude)
        assert conv.all() and (iters == 1).all()
        npt.assert_array_equal(bits, cw)

    def test_clamps_keep_tanh_below_one_and_artanh_finite(self):
        # float32 tanh rounds to exactly 1.0 from about 9.999 on; the clamp
        # must stay below that on the scalar and on the SIMD (vector) path
        assert coding._HALF_CLAMP.dtype == coding._TANH_CLIP.dtype == np.float32
        assert np.tanh(coding._HALF_CLAMP) < 1.0
        assert np.all(np.tanh(np.full(64, coding._HALF_CLAMP, dtype=np.float32)) < 1.0)
        reply = np.arctanh(coding._TANH_CLIP)
        assert np.isfinite(reply) and reply == pytest.approx(8.3178, abs=1e-4)

    def test_check_update_matches_oracle_across_the_clamp(self):
        # one check of degree 6; its half-scale messages sit below, at and
        # above the clamp, up to where float32 tanh is exactly 1.0
        code = ParityCheckCode(6, [[0, 1, 2, 3, 4, 5]])
        q = np.array([[8.5, -9.0, 9.5, -12.0, 30.0, 2.0],
                      [9.25, 10.5, -40.0, 9.0, -8.75, 0.5]], dtype=np.float32)
        expected = np.array([check_replies(row) for row in q], dtype=np.float32)
        # the decoder's edge-major layout: one row per edge, the frames innermost
        q = np.ascontiguousarray(q.T)
        r = np.empty_like(q)
        coding._check_update(q, r, code)
        r = r.T
        assert r.dtype == np.float32 and np.isfinite(r).all()
        assert r.tobytes() == expected.tobytes()

    def test_nan_llrs_rejected(self):
        # NaN < 0 is False and NaN != 0 is True, so a NaN bit would look decided
        code = bundled_code()
        llr = _noisy_llrs(code, 3, 0.5, seed=4)
        llr[0, 17] = np.nan
        for bad in (llr, llr[0]):
            with pytest.raises(ValueError, match="NaN"):
                decode_bp(code, bad)

    def test_all_zero_llrs_do_not_converge(self, toy_code):
        _, conv, iters = decode_bp(toy_code, np.zeros(toy_code.n), max_iters=7)
        assert not conv and iters == 7

    def test_early_exit_returns_codeword(self, toy_code, rng):
        cw = encode(toy_code, rng.integers(0, 2, size=(16, toy_code.k), dtype=np.uint8))
        x = 1.0 - 2.0 * cw
        y = x + rng.normal(0.0, 0.55, size=x.shape)
        llr = 4.0 * y / (2 * 0.55 ** 2)
        bits, conv, _ = decode_bp(toy_code, llr, max_iters=30)
        assert not syndrome_int64(toy_code.dense_matrix(), bits[conv]).any()

    def test_deterministic(self, toy_code, rng):
        llr = rng.normal(0.0, 2.0, size=toy_code.n)
        a = decode_bp(toy_code, llr, max_iters=15)
        b = decode_bp(toy_code, llr, max_iters=15)
        npt.assert_array_equal(a[0], b[0])
        assert a[1] == b[1] and a[2] == b[2]

    def test_length_mismatch_rejected(self, toy_code):
        with pytest.raises(ValueError, match="LLRs"):
            decode_bp(toy_code, np.zeros(toy_code.n - 1))
        with pytest.raises(ValueError, match="max_iters"):
            decode_bp(toy_code, np.zeros(toy_code.n), max_iters=0)

    @pytest.mark.parametrize("which, sigma", [("toy", 0.9), ("toy", 1.0), ("irregular", 0.9), ("irregular", 1.0),
                                              ("handbuilt", 0.9), ("handbuilt", 1.0)])
    def test_matches_loop_oracle(self, which, sigma, toy_code, irregular_code, handbuilt_code):
        # the bits come back in code order
        code = {"toy": toy_code, "irregular": irregular_code, "handbuilt": handbuilt_code}[which]
        llr = _noisy_llrs(code, 16, sigma, seed=5)
        bits, conv, iters = decode_bp(code, llr)
        # some frames converge within a few iterations, others hit the cap
        assert iters.min() <= 5 and not conv.all()
        check_lists = [vs.tolist() for vs in code.check_lists]
        for f in range(len(llr)):
            o_bits, o_conv, o_iters = flooding_decode_loops(check_lists, code.n, llr[f], 50)
            npt.assert_array_equal(bits[f], o_bits)
            assert (conv[f], iters[f]) == (o_conv, o_iters)

    @pytest.mark.parametrize("which, sizes", [pytest.param(w, sizes, id=w if sizes is None else f"{w}-{name}")
                                              for name, sizes in (("", None), *_STREAMS.items())
                                              for w in ("toy", "irregular")])
    def test_batch_equals_frames_decoded_alone(self, which, sizes, toy_code, irregular_code):
        # the irregular code takes its variables out of code order
        code = {"toy": toy_code, "irregular": irregular_code}[which]
        llr = _noisy_llrs(code, sum(sizes or (16,)), 0.9, seed=5)
        # frames leave the batch at different iterations, and some at the cap
        _assert_frames_decode_alone(code, llr, sizes, distinct_iters=3)

    def test_bundled_batch_equals_frames_decoded_alone(self):
        # a full 25-frame block of the harness: the running columns move at
        # many different iterations, and one frame runs to the cap
        code = bundled_code()
        _assert_frames_decode_alone(code, _noisy_llrs(code, 25, 0.6, seed=5), None, distinct_iters=8)

    @pytest.mark.parametrize("sizes", _STREAMS.values(), ids=_STREAMS.keys())
    def test_bundled_stream_equals_frames_decoded_alone(self, sizes):
        # the blocks run longer than the decoder's batch, so converged and
        # capped frames hand their columns to the next frames of the stream
        code = bundled_code()
        _assert_frames_decode_alone(code, _noisy_llrs(code, sum(sizes), 0.6, seed=5), sizes, distinct_iters=8)

    def test_read_only_input_is_not_written(self, toy_code):
        llr = _noisy_llrs(toy_code, 4, 0.8, seed=3)
        expected = decode_bp(toy_code, llr.copy())
        llr.setflags(write=False)
        for got, want in ((decode_bp(toy_code, llr), expected),
                          (decode_bp(toy_code, llr[1]), [x[1] for x in expected])):
            npt.assert_array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])

    def test_memory_stays_within_eight_message_arrays(self):
        # the bound is 8 float32 arrays of (25 frames, edges), plus one
        # block's float64 LLRs for a stream of 11 blocks, which the decoder
        # reads one block at a time; every frame of the first block runs
        # all 50 iterations
        code = bundled_code()
        blocks = [_noisy_llrs(code, 25, 0.65, seed=6 + b) for b in range(11)]
        for llrs, extra in ((blocks[0], 0), (iter(blocks), blocks[0].nbytes)):
            tracemalloc.start()
            try:
                _, conv, iters = decode_bp(code, llrs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert not conv[:25].any() and (iters[:25] == 50).all()
            assert peak < 8 * 25 * code.edge_var.size * 4 + extra

    def test_high_snr_ber_floor_bundled_code(self):
        # binary-input AWGN sanity floor: Es/N0 = 6 dB is deep inside the
        # rate-3/4 decoding region, so 300k bits must decode error-free
        code = bundled_code()
        rng = np.random.default_rng(99)
        u = rng.integers(0, 2, size=(200, code.k), dtype=np.uint8)
        cw = encode(code, u)
        n0 = 10 ** (-0.6)
        x = 1.0 - 2.0 * cw
        y = x + rng.normal(0.0, np.sqrt(n0 / 2.0), size=x.shape)
        llr = np.clip(4.0 * y / n0, -60, 60)
        bits, conv, _ = decode_bp(code, llr, max_iters=50)
        ber = np.mean(info_bits_of(code, bits) != u)
        assert conv.all()
        assert ber < 1e-5


class TestEdgeLayout:
    @pytest.mark.parametrize("which", ["toy", "bundled", "irregular", "handbuilt"])
    def test_variables_run_by_falling_degree(self, which, toy_code, irregular_code, handbuilt_code):
        code = {"toy": toy_code, "bundled": bundled_code(), "irregular": irregular_code,
                "handbuilt": handbuilt_code}[which]
        deg, C = code.var_deg, code.num_checks
        by_degree = sorted(range(code.n), key=lambda v: -deg[v])  # sorted() is stable
        npt.assert_array_equal(code.var_order, by_degree)
        # the regular codes keep code order, and the decoder skips the reorder; the others are reordered
        assert np.array_equal(code.var_order, np.arange(code.n)) == (which in ("toy", "bundled"))
        assert code.reorder_vars == (which not in ("toy", "bundled"))
        assert len(code.var_slots) == deg.max()
        for j, rows in enumerate(code.var_slots):
            assert rows.size == np.count_nonzero(deg > j)
            npt.assert_array_equal(code.col_var[rows], np.arange(rows.size))
        # every real edge row once across the slots, none of the fillers
        check_order = np.argsort(-code.check_deg, kind="stable")
        real = [j * C + i for i, c in enumerate(check_order) for j in range(code.check_deg[c])]
        assert sorted(np.concatenate(code.var_slots).tolist()) == sorted(real)
        # the rows from edge_end on, which the elementwise passes skip, are all fillers
        assert code.edge_end == max(real) + 1
        # slot j of a variable is its edge to its j-th check, in check order
        rank = np.argsort(code.var_order)
        for v in range(code.n):
            checks = [check_order[code.var_slots[j][rank[v]] % C] for j in range(deg[v])]
            assert checks == [c for c, vs in enumerate(code.check_lists) if v in vs]


class TestBundledCode:
    def test_parameters(self):
        code = bundled_code()
        assert code.n == 1992 and code.k == 1494
        assert code.rate == pytest.approx(0.75)
        # whole codewords map onto whole symbols for m = 4, 6, 8, 12
        for m in (4, 6, 8, 12):
            assert code.n % m == 0

    def test_degree_profile(self):
        code = bundled_code()
        npt.assert_array_equal(code.var_deg, np.full(code.n, 3))
        # check degrees concentrate at E/m; the farthest-first edge placement
        # leaves a small spread
        assert code.check_deg.sum() == 3 * code.n
        assert code.check_deg.min() >= 10 and code.check_deg.max() <= 14


class TestInterleaver:
    def test_round_trip_identity(self, rng):
        bits = rng.integers(0, 2, size=512, dtype=np.uint8)
        perm = interleaver_permutation(512, 7)
        npt.assert_array_equal(deinterleave(interleave(bits, perm), perm), bits)

    def test_same_seed_same_permutation(self):
        npt.assert_array_equal(interleaver_permutation(256, 3), interleaver_permutation(256, 3))

    def test_different_seeds_differ(self):
        assert not np.array_equal(interleaver_permutation(64, 1), interleaver_permutation(64, 2))

    def test_batched_along_last_axis(self, rng):
        x = rng.normal(size=(5, 128))
        perm = interleaver_permutation(128, 11)
        y = interleave(x, perm)
        for row in range(5):
            npt.assert_array_equal(y[row], interleave(x[row], perm))
        npt.assert_array_equal(deinterleave(y, perm), x)
