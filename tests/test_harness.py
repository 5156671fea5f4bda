import argparse
import os
from dataclasses import fields

import numpy as np
import pytest

from qcilink import (
    DEMAPPER_KINDS,
    AffineCompensation,
    Constellation,
    SimConfig,
    build_pam,
    build_qci,
    cli,
    coding,
    demap,
    harness,
    load_constellation,
    parse_config,
    psnr_grid,
    run,
    save_constellation,
)
from qcilink.cli import main
from qcilink.errors import ConfigError
from qcilink.harness import (FAMILIES, build_context, resolved_samples, resolved_target_errors,
                             validate_config, write_records_csv)
from qcilink.metrics import SweepRecord

# first use of the OpenBLAS helper: a workers=1 run restores this count
_OPENBLAS = harness._openblas()


def _no_block(args):
    pytest.fail("a Monte Carlo block ran")


class TestParseConfig:
    def test_minimal_file_fills_defaults(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("family = qci\nM = 16\nmode = gmi\npsnr_start = 10\npsnr_stop = 12\n")
        cfg = parse_config(path)
        assert cfg.seed == 1
        assert cfg.workers == 0
        assert resolved_samples(cfg) == 1_000_000

    def test_unknown_key_is_named(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("demaper = exact2d\n")
        with pytest.raises(ConfigError, match="demaper"):
            parse_config(path)

    def test_type_mismatch_reported(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("M = sixteen\n")
        with pytest.raises(ConfigError, match="M"):
            parse_config(path)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("psnr_start = 8\npsnr_stop = 16\npsnr_step = 0.5\nseed = 4\n")
        cfg = parse_config(path, {"psnr_start": 10.0, "psnr_stop": 20.0, "psnr_step": 0.25})
        assert (cfg.psnr_start, cfg.psnr_stop, cfg.psnr_step) == (10.0, 20.0, 0.25)
        assert cfg.seed == 4

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("# comment\n\nM = 64  # trailing\n")
        assert parse_config(path).M == 64

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("this is not a key value pair\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(path)

    @pytest.mark.parametrize("overrides,match", [
        ({"mode": "turbo"}, "mode"),
        ({"demapper": "zf"}, "demapper"),
        ({"family": "psk"}, "family"),
        ({"psnr_step": -1.0}, "psnr_step"),
        ({"psnr_start": 20.0, "psnr_stop": 10.0}, "psnr_start"),
        ({"mode": "gmi", "samples": 1000}, "samples"),
        ({"family": "file"}, "constellation_file"),
        ({"family": "qam", "demapper": "qci_lcd_compensated"}, "compensation"),
    ])
    def test_validation_errors(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(None, overrides)

    @pytest.mark.parametrize("key", ["comp_samples", "max_iters"])
    def test_removed_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            parse_config(None, {key: "50"})


# the (family, demapper) pairs a run may use; every other pair is a config error
VALID_PAIRS = {
    ("qam", "exact2d"), ("qam", "maxlog2d"), ("qam", "qam_decomposed"),
    ("qam", "qci_lcd"), ("qam", "qci_remapped_2d"),
    ("qci", "exact2d"), ("qci", "maxlog2d"), ("qci", "qci_lcd"),
    ("qci", "qci_lcd_compensated"), ("qci", "qci_remapped_2d"),
    ("file", "exact2d"), ("file", "maxlog2d"),
}


@pytest.fixture(scope="module")
def qci16_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("const") / "qci16.csv"
    save_constellation(build_qci(16), path)
    return str(path)


class TestFamilyDemapperPairs:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("kind", DEMAPPER_KINDS)
    def test_pair_validates_and_demaps_or_exits_2(self, family, kind, qci16_file, tmp_path, capsys):
        cfg = SimConfig(mode="gmi", family=family, M=16, demapper=kind,
                        constellation_file=qci16_file, output=str(tmp_path / "g.csv"))
        try:
            validate_config(cfg)
        except ConfigError:
            assert (family, kind) not in VALID_PAIRS
            rc = main(["gmi", "--family", family, "--M", "16", "--demapper", kind,
                       "--constellation-file", qci16_file, "--psnr", "11:11:1",
                       "--output", cfg.output])
            assert rc == 2
            assert "config error" in capsys.readouterr().err
            return
        assert (family, kind) in VALID_PAIRS
        ctx = build_context(cfg)
        y = ctx.draw(64, 0.1, np.random.default_rng(0))[1]
        frame = demap(kind, y, ctx, 0.1, comp=AffineCompensation(1.0, np.zeros(2)))
        assert frame.values.shape == (64, 4)
        assert np.all(np.isfinite(frame.values))

    @pytest.mark.parametrize("mode", ["uncoded_ber", "coded_ber"])
    def test_compensated_kind_runs_in_ber_modes(self, mode, toy_alist, tmp_path):
        # each grid point estimates its own compensation, which the BER blocks demap with
        csvs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}.csv"
            run(SimConfig(mode=mode, family="qci", M=16, demapper="qci_lcd_compensated",
                          code_file=str(toy_alist), psnr_start=11.0, psnr_stop=12.0, psnr_step=1.0,
                          samples=200_000 if mode == "uncoded_ber" else 50, target_errors=100,
                          seed=5, workers=workers, output=str(out)))
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]
        assert len(csvs[0].splitlines()) == (3 if mode == "uncoded_ber" else 5)

    @pytest.mark.parametrize("family,kinds", [
        ("qam", ["exact2d", "maxlog2d", "qam_decomposed", "qci_lcd", "qci_remapped_2d"]),
        ("qci", ["exact2d", "maxlog2d", "qci_lcd", "qci_remapped_2d"]),
        ("file", ["exact2d", "maxlog2d"]),
    ])
    def test_complexity_kinds_per_family(self, family, kinds, qci16_file, tmp_path):
        cfg = SimConfig(mode="complexity", family=family, M=16, constellation_file=qci16_file,
                        psnr_start=12.0, psnr_stop=12.0, output=str(tmp_path / "cx.csv"))
        assert [r.demapper for r in run(cfg)] == kinds


class TestGrid:
    def test_inclusive_endpoints(self):
        cfg = SimConfig(psnr_start=10.0, psnr_stop=12.0, psnr_step=0.5)
        assert psnr_grid(cfg) == [10.0, 10.5, 11.0, 11.5, 12.0]

    def test_single_point(self):
        cfg = SimConfig(psnr_start=10.0, psnr_stop=10.0, psnr_step=0.25)
        assert psnr_grid(cfg) == [10.0]

    def test_default_targets(self):
        assert resolved_target_errors(SimConfig(mode="uncoded_ber")) == 100
        assert resolved_target_errors(SimConfig(mode="coded_ber")) == 50


class TestComplexityMode:
    def test_counter_table(self, tmp_path):
        cfg = SimConfig(mode="complexity", family="qci", M=256,
                        psnr_start=12.0, psnr_stop=12.0,
                        output=str(tmp_path / "cx.csv"))
        by_kind = {r.demapper: r.value for r in run(cfg)}
        assert by_kind["exact2d"] == 256
        assert by_kind["qci_lcd"] == 32
        assert by_kind["qci_remapped_2d"] == 256

    def test_samples_sets_the_symbol_count(self):
        records = run(SimConfig(mode="complexity", family="qci", M=16, samples=64, output=None))
        assert {r.trials for r in records} == {64}

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "cx.csv"
        run(SimConfig(mode="complexity", family="qam", M=16, output=str(out)))
        header = out.read_text().splitlines()[0]
        assert header == "psnr_db,metric,value,stderr,trials,constellation,demapper,seed"


class TestCsvWrite:
    def test_run_leaves_only_the_csv(self, tmp_path):
        out = tmp_path / "cx.csv"
        run(SimConfig(mode="complexity", family="qam", M=16, output=str(out)))
        assert os.listdir(tmp_path) == ["cx.csv"]
        assert out.read_bytes() == (
            b"psnr_db,metric,value,stderr,trials,constellation,demapper,seed\n"
            b"8,evals_per_symbol,16,0,256,qam16,exact2d,1\n"
            b"8,evals_per_symbol,16,0,256,qam16,maxlog2d,1\n"
            b"8,evals_per_symbol,8,0,256,qam16,qam_decomposed,1\n"
            b"8,evals_per_symbol,8,0,256,qam16,qci_lcd,1\n"
            b"8,evals_per_symbol,16,0,256,qam16,qci_remapped_2d,1\n"
        )

    def test_no_output_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        records = run(SimConfig(mode="complexity", family="qam", M=16, output=None))
        assert [r.demapper for r in records] == ["exact2d", "maxlog2d", "qam_decomposed", "qci_lcd",
                                                 "qci_remapped_2d"]
        assert os.listdir(tmp_path) == []

    def test_scatter_needs_an_output(self):
        with pytest.raises(ConfigError, match="scatter"):
            validate_config(SimConfig(mode="scatter", output=None))

    def test_make_figures_writes_each_csv_once(self, tmp_path, monkeypatch):
        writes = []

        def recorded(records, path):
            writes.append(str(path))
            write_records_csv(records, path)

        monkeypatch.setattr(harness, "write_records_csv", recorded)
        monkeypatch.setattr(cli, "write_records_csv", recorded)
        modes = []
        monkeypatch.setattr(cli, "run", lambda cfg: modes.append(cfg.mode) or run(cfg))
        outdir = tmp_path / "figs"
        rc = main(["make-figures", "--outdir", str(outdir), "--sizes", "16", "--samples", "100000",
                   "--step", "5.0", "--seed", "3", "--workers", "1"])
        assert rc == 0
        # the qci_lcd curve both figures share runs once
        assert modes.count("gmi") == 4
        figures = {"ber_analogue": [("qam", "qam_decomposed"), ("qci", "qci_lcd"), ("qci", "exact2d")],
                   "iq_loss": [("qci", "qci_lcd"), ("qci", "qci_remapped_2d")]}
        assert sorted(writes) == sorted(str(outdir / f"fig_{f}_gmi_m16.csv") for f in figures)
        # each figure CSV holds the rows of its curves' own CSVs, in curve order
        for figure, curves in figures.items():
            rows = []
            for i, (family, kind) in enumerate(curves):
                own = tmp_path / f"{figure}_{i}.csv"
                run(SimConfig(mode="gmi", family=family, M=16, demapper=kind, psnr_start=10.0,
                              psnr_stop=15.0, psnr_step=5.0, samples=100_000, seed=3, workers=1,
                              output=str(own)))
                header, *body = own.read_text().splitlines(keepends=True)
                rows += body
            assert (outdir / f"fig_{figure}_gmi_m16.csv").read_text() == header + "".join(rows)

    @pytest.mark.parametrize("write", [
        lambda out: harness.write_records_csv(
            [SweepRecord(8.0, "evals_per_symbol", 16.0, 0.0, 256, 0, "qam16", "exact2d", 1)], out),
        lambda out: run(SimConfig(mode="scatter", family="qci", M=16, samples=100, output=str(out))),
    ], ids=["records", "scatter"])
    def test_failed_write_keeps_the_old_csv(self, write, tmp_path, monkeypatch):
        out = tmp_path / "cx.csv"
        out.write_text("old\n")

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write(out)
        assert os.listdir(tmp_path) == ["cx.csv"]
        assert out.read_text() == "old\n"


class TestGmiMode:
    def test_sweep_records_increase_with_psnr(self, tmp_path):
        cfg = SimConfig(mode="gmi", family="qci", M=16, demapper="qci_lcd",
                        psnr_start=9.0, psnr_stop=13.0, psnr_step=1.0,
                        samples=100_000, seed=2, workers=1,
                        output=str(tmp_path / "gmi.csv"))
        records = run(cfg)
        assert len(records) == 5
        values = [r.value for r in records]
        assert values == sorted(values)
        assert all(r.metric == "gmi" and r.trials == 100_000 for r in records)

    @pytest.mark.parametrize("family, kind", [("qci", "qci_lcd"), ("qam", "exact2d")])
    def test_most_negative_admitted_psnr_gives_a_finite_gmi(self, family, kind):
        # -3000 dB gives n0 = 1e300 = harness.MAX_N0 exactly
        assert harness.n0_from_psnr(-3000.0) == harness.MAX_N0
        records = run(SimConfig(mode="gmi", family=family, M=16, demapper=kind, psnr_start=-3000.0,
                                psnr_stop=-3000.0, samples=100_000, workers=1, output=None))
        assert np.isfinite(records[0].value) and np.isfinite(records[0].stderr)

    def test_inline_run_builds_one_context_and_leaves_no_worker_state(self, monkeypatch):
        calls = []
        build = harness.build_context
        monkeypatch.setattr(harness, "build_context", lambda cfg: calls.append(cfg) or build(cfg))
        run(SimConfig(mode="gmi", family="qci", M=16, psnr_start=11.0, psnr_stop=11.0, samples=100_000,
                      workers=1, output=None))
        assert len(calls) == 1
        assert harness._WORKER == {}

    def test_workers_do_not_change_output(self, tmp_path):
        base = dict(mode="gmi", family="qci", M=16, demapper="qci_lcd",
                    psnr_start=11.0, psnr_stop=11.5, psnr_step=0.5,
                    samples=250_000, seed=9)
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        run(SimConfig(workers=1, output=str(out1), **base))
        run(SimConfig(workers=2, output=str(out2), **base))
        assert out1.read_bytes() == out2.read_bytes()

    def test_workers_do_not_change_exact2d_output(self, tmp_path):
        # the threaded-BLAS path: (N, M) distance matrices at M = 256
        base = dict(mode="gmi", family="qci", M=256, demapper="exact2d",
                    psnr_start=22.0, psnr_stop=22.0, samples=250_000, seed=5)
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        run(SimConfig(workers=1, output=str(out1), **base))
        run(SimConfig(workers=2, output=str(out2), **base))
        assert out1.read_bytes() == out2.read_bytes()


def _openblas_threads(_):
    return _OPENBLAS.get()


def _pool_budget(workers):
    return max(1, len(os.sched_getaffinity(0)) // workers)


@pytest.mark.skipif(_OPENBLAS is None, reason="numpy does not use a loadable OpenBLAS")
class TestBlasBudget:
    def test_pool_workers_run_with_the_blas_budget(self, tmp_path):
        cfg = SimConfig(mode="gmi", family="qci", M=16, workers=2,
                        output=str(tmp_path / "unused.csv"))
        execu = harness._Executor(cfg)
        try:
            counts = execu.map(_openblas_threads, range(4))
        finally:
            execu.close()
        assert counts == [_pool_budget(2)] * 4

    def test_inline_run_restores_the_count_at_first_use(self, tmp_path):
        base = dict(mode="gmi", family="qci", M=16, demapper="qci_lcd",
                    psnr_start=11.0, psnr_stop=11.0, samples=100_000, seed=3,
                    output=str(tmp_path / "g.csv"))
        run(SimConfig(workers=2, **base))
        assert _OPENBLAS.get() == _pool_budget(2)
        run(SimConfig(workers=1, **base))
        assert _OPENBLAS.get() == _OPENBLAS.initial


def test_workers_0_counts_the_cpus_of_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    execu = harness._Executor(SimConfig(mode="gmi", workers=0))
    execu.close()
    assert execu.workers == 1
    assert execu.pool is None


class TestUncodedMode:
    def test_stops_at_error_target(self, tmp_path):
        cfg = SimConfig(mode="uncoded_ber", family="qam", M=16, demapper="qam_decomposed",
                        psnr_start=6.0, psnr_stop=6.0, psnr_step=1.0,
                        samples=10_000_000, target_errors=100, seed=1, workers=1,
                        output=str(tmp_path / "u.csv"))
        rec = run(cfg)[0]
        assert rec.errors >= 100
        assert rec.trials == 100_000  # one 25k-symbol block was enough

    def test_budget_cap_respected(self, tmp_path):
        cfg = SimConfig(mode="uncoded_ber", family="qam", M=16, demapper="qam_decomposed",
                        psnr_start=25.0, psnr_stop=25.0, psnr_step=1.0,
                        samples=200_000, target_errors=100, seed=1, workers=1,
                        output=str(tmp_path / "u.csv"))
        rec = run(cfg)[0]
        assert rec.trials == 200_000
        assert rec.value < 1e-3


class TestCodedMode:
    def test_inline_run_loads_the_code_once(self, toy_alist, monkeypatch, tmp_path):
        calls = []
        load = harness.load_code
        monkeypatch.setattr(harness, "load_code", lambda cfg: calls.append(cfg) or load(cfg))
        records = run(SimConfig(mode="coded_ber", family="qam", M=16, demapper="qam_decomposed",
                                code_file=str(toy_alist), psnr_start=12.0, psnr_stop=12.0, samples=25,
                                workers=1, output=str(tmp_path / "c.csv")))
        assert [r.metric for r in records] == ["ber", "fer"]
        assert len(calls) == 1

    def test_pool_workers_inherit_the_encoder(self, toy_alist, monkeypatch, tmp_path):
        parent, rref = os.getpid(), coding._gf2_rref

        def rref_in_parent_only(H):
            if os.getpid() != parent:
                raise RuntimeError("a pool worker derived the encoder")
            return rref(H)

        monkeypatch.setattr(coding, "_gf2_rref", rref_in_parent_only)
        records = run(SimConfig(mode="coded_ber", family="qam", M=16, demapper="qam_decomposed",
                                code_file=str(toy_alist), psnr_start=20.0, psnr_stop=20.0, samples=50,
                                workers=2, output=str(tmp_path / "c.csv")))
        # no errors at 20 dB, so the whole 50-frame budget runs
        assert [r.trials for r in records] == [50 * 24, 50]

    def test_pool_workers_inherit_the_interleaver(self, toy_alist, monkeypatch, tmp_path):
        parent, derive, calls = os.getpid(), harness.interleaver_permutation, []

        def derive_in_parent_only(n, seed):
            if os.getpid() != parent:
                raise RuntimeError("a pool worker derived the interleaver permutation")
            calls.append(seed)
            return derive(n, seed)

        monkeypatch.setattr(harness, "interleaver_permutation", derive_in_parent_only)
        records = run(SimConfig(mode="coded_ber", family="qam", M=16, demapper="qam_decomposed",
                                code_file=str(toy_alist), psnr_start=20.0, psnr_stop=20.0, samples=50,
                                workers=2, output=str(tmp_path / "c.csv")))
        assert [r.trials for r in records] == [50 * 24, 50]
        assert calls == [1]

    @pytest.mark.parametrize("family, kind", [("qam", "qam_decomposed"), ("qci", "qci_lcd"), ("qci", "exact2d")])
    def test_decoder_input_is_the_deinterleaved_symbol_major_llrs(self, family, kind, toy_alist, monkeypatch):
        # the block's one gather from bit-major LLRs equals reshaping them
        # symbol-major into frames and deinterleaving, byte for byte
        demapped, decoded = [], []
        monkeypatch.setattr(harness, "demap", lambda *a: demapped.append(demap(*a)) or demapped[-1])
        decode = harness.decode_bp
        monkeypatch.setattr(harness, "decode_bp", lambda code, llrs: decoded.append(llrs) or decode(code, llrs))
        run(SimConfig(mode="coded_ber", family=family, M=16, demapper=kind, code_file=str(toy_alist),
                      psnr_start=9.0, psnr_stop=9.0, samples=40, target_errors=10**6, workers=1, output=None))
        perm = coding.interleaver_permutation(48, 1)
        assert [len(llrs) for llrs in decoded] == [25, 15]
        for frame, llrs in zip(demapped, decoded):
            want = coding.deinterleave(np.ascontiguousarray(frame.values).reshape(len(llrs), -1), perm)
            assert llrs.tobytes() == want.tobytes()

    def test_code_length_not_a_multiple_of_the_bits_exits_2_before_any_block(self, toy_alist, monkeypatch,
                                                                              tmp_path, capsys):
        monkeypatch.setattr(harness, "_coded_task", _no_block)
        out = tmp_path / "c.csv"
        # neither the 48-bit test code nor the bundled 1992-bit code fills whole 10-bit qci1024 symbols
        for code_flags in (["--code-file", str(toy_alist)], []):
            rc = main(["sweep", "--coded", "--family", "qci", "--M", "1024", *code_flags,
                       "--workers", "1", "--output", str(out)])
            assert rc == 2, code_flags
            assert "not a multiple of 10" in capsys.readouterr().err
            assert not out.exists()

    def test_rank_deficient_code_file_exits_3_before_any_block(self, rank_deficient_alist, monkeypatch,
                                                                tmp_path, capsys):
        monkeypatch.setattr(harness, "_coded_task", _no_block)
        out = tmp_path / "c.csv"
        rc = main(["sweep", "--coded", "--family", "qam", "--demapper", "qam_decomposed",
                   "--code-file", str(rank_deficient_alist), "--workers", "1", "--output", str(out)])
        assert rc == 3
        assert "rank deficient" in capsys.readouterr().err
        assert not out.exists()


class TestScatterMode:
    def test_writes_dump(self, tmp_path):
        out = tmp_path / "sc.csv"
        cfg = SimConfig(mode="scatter", family="qci", M=16,
                        psnr_start=11.0, psnr_stop=11.0, samples=1000,
                        output=str(out))
        assert run(cfg) == []
        assert out.exists()
        assert (tmp_path / "sc_centers.csv").exists()


class TestCli:
    def test_gray_check_ok(self, capsys):
        assert main(["gray-check", "--family", "qci", "--M", "64"]) == 0
        assert "Gray labeling OK" in capsys.readouterr().out

    def test_gray_check_exit_codes(self, tmp_path, capsys):
        # 4-PAM with natural binary labels: the middle pair differs in both bits
        natural = np.array([[1, 1], [1, 0], [0, 1], [0, 0]], dtype=np.uint8)
        path = tmp_path / "pam4_natural.csv"
        save_constellation(Constellation(build_pam(4).points, natural), path)
        assert main(["gray-check", "--family", "file", "--constellation-file", str(path)]) == 4
        assert "Gray violations" in capsys.readouterr().out
        assert main(["gray-check", "--family", "qam", "--M", "64"]) == 0

    def test_constellation_export_round_trip(self, tmp_path, capsys):
        out = tmp_path / "qci16.csv"
        assert main(["constellation", "export", "--family", "qci", "--M", "16",
                     "--output", str(out)]) == 0
        from qcilink import build_qci, load_constellation
        loaded = load_constellation(out)
        assert loaded.M == 16
        np.testing.assert_array_equal(loaded.points, build_qci(16).points)

    def test_constellation_export_peak_normalize(self, tmp_path, capsys):
        out = tmp_path / "qci64.csv"
        assert main(["constellation", "export", "--family", "qci", "--M", "64", "--peak-normalize",
                     "--output", str(out)]) == 0
        peak = np.max(np.sum(load_constellation(out).points ** 2, axis=1))
        assert peak == pytest.approx(1.0, abs=1e-15)

    def test_gray_check_file_needs_a_constellation_file(self, capsys):
        assert main(["gray-check", "--family", "file"]) == 2
        assert "requires --constellation-file" in capsys.readouterr().err

    def test_complexity_command(self, tmp_path, capsys):
        rc = main(["complexity", "--family", "qci", "--M", "64",
                   "--psnr", "12:12:1", "--output", str(tmp_path / "c.csv")])
        assert rc == 0
        assert "16 distance evals/symbol" in capsys.readouterr().out

    def test_complexity_lines_name_the_constellation(self, tmp_path, capsys):
        const = tmp_path / "qci64.csv"
        save_constellation(build_qci(64), const)
        rc = main(["complexity", "--family", "file", "--constellation-file", str(const),
                   "--psnr", "12:12:1", "--output", str(tmp_path / "c.csv")])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            "qci64 exact2d: 64 distance evals/symbol", "qci64 maxlog2d: 64 distance evals/symbol"]

    @pytest.mark.parametrize("argv", [
        ["gray-check", "--family", "qam", "--M", "12"],
        ["constellation", "export", "--family", "pam", "--M", "3", "--output", "x.csv"],
        ["gray-check", "--family", "qam", "--M", "0"],
        ["constellation", "export", "--M", "0", "--output", "x.csv"],
    ])
    def test_unsupported_size_exits_2(self, argv, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert "config error: unsupported" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["gmi", "sweep", "scatter", "complexity"])
    def test_config_error_exit_code(self, command, capsys):
        rc = main([command, "--family", "qci", "--M", "16", "--demapper", "bogus",
                   "--psnr", "10:11:0.5"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scatter", "complexity"])
    @pytest.mark.parametrize("flags", [
        ["--family", "file"],
        ["--family", "qam", "--demapper", "qci_lcd_compensated"],
    ])
    def test_modes_that_do_not_demap_skip_the_family_rule(self, command, flags, qci16_file, tmp_path):
        out = tmp_path / "o.csv"
        rc = main([command, *flags, "--M", "16", "--constellation-file", qci16_file,
                   "--psnr", "12:12:1", "--output", str(out)])
        assert rc == 0
        assert out.exists()

    def test_file_complexity_runs_the_2d_kinds(self, qci16_file, tmp_path, capsys):
        rc = main(["complexity", "--family", "file", "--constellation-file", qci16_file,
                   "--psnr", "12:12:1", "--output", str(tmp_path / "c.csv")])
        assert rc == 0
        kinds = [line.split()[1].rstrip(":") for line in capsys.readouterr().out.splitlines()]
        assert ", ".join(kinds) == "exact2d, maxlog2d"

    def test_1d_constellation_file_exits_2_before_the_pool(self, monkeypatch, tmp_path, capsys):
        pam = tmp_path / "pam4.csv"
        assert main(["constellation", "export", "--family", "pam", "--M", "4", "--output", str(pam)]) == 0

        def no_pool(cfg):
            pytest.fail("the pool started")

        monkeypatch.setattr(harness, "_Executor", no_pool)
        monkeypatch.setattr(harness, "_gmi_task", _no_block)
        out = tmp_path / "g.csv"
        rc = main(["gmi", "--family", "file", "--constellation-file", str(pam), "--demapper", "exact2d",
                   "--psnr", "11:11:1", "--output", str(out)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--M", "12"],
        ["--family", "qci", "--demapper", "qam_decomposed"],
    ])
    def test_unsupported_config_exits_2_before_running(self, flags, tmp_path, capsys):
        out = tmp_path / "g.csv"
        rc = main(["gmi", *flags, "--psnr", "11:11:1", "--output", str(out)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_exits_3_before_any_block(self, monkeypatch, capsys):
        monkeypatch.setattr(harness, "_gmi_task", _no_block)
        rc = main(["gmi", "--family", "qci", "--M", "16", "--psnr", "10:12:0.5",
                   "--samples", "100000", "--workers", "1",
                   "--output", "/no/such/dir/x.csv"])
        assert rc == 3
        assert "I/O error" in capsys.readouterr().err

    def test_scatter_checks_its_centers_file_before_drawing(self, monkeypatch, tmp_path, capsys):
        out = tmp_path / "sc.csv"
        out.write_text("old\n")
        (tmp_path / "sc_centers.csv").mkdir()
        monkeypatch.setattr(harness, "scatter_dump", lambda *a: pytest.fail("the scatter dump was drawn"))
        rc = main(["scatter", "--psnr", "12:12:1", "--samples", "100", "--output", str(out)])
        assert rc == 3
        assert "I/O error" in capsys.readouterr().err
        assert out.read_text() == "old\n"

    def test_bad_psnr_flag_exit_code(self):
        assert main(["gmi", "--psnr", "10-20-1"]) == 2

    @pytest.mark.parametrize("psnr", ["nan:12:1", "10:inf:1", "10:12:nan", "-1e9:-1e9:1", "1e9:1e9:1"])
    def test_psnr_without_a_finite_positive_n0_exits_2_before_any_block(self, psnr, monkeypatch, tmp_path,
                                                                         capsys):
        monkeypatch.setattr(harness, "_gmi_task", _no_block)
        start, stop, step = psnr.split(":")
        config = tmp_path / "sim.cfg"
        config.write_text(f"psnr_start = {start}\npsnr_stop = {stop}\npsnr_step = {step}\n")
        out = tmp_path / "g.csv"
        for flags in ([f"--psnr={psnr}"], ["--config", str(config)]):
            assert main(["gmi", *flags, "--workers", "1", "--output", str(out)]) == 2, flags
            assert "config error" in capsys.readouterr().err
            assert not out.exists()

    # a grid of inf points, one of 20 001 points, ends whose n0 exceeds harness.MAX_N0 (1e300)
    # and ends whose n0 falls below harness.MIN_N0 (1e-300)
    @pytest.mark.parametrize("psnr", ["10:11:1e-320", "-100:100:0.01", "-3080:-3080:1", "-3000.001:12:1",
                                      "3080:3080:1", "12:3000.001:1"],
                             ids=["inf-points", "20001-points", "n0-1e308", "n0-above-1e300", "n0-1e-308",
                                  "n0-below-1e-300"])
    def test_psnr_grid_out_of_bounds_exits_2_before_any_block(self, psnr, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(harness, "_gmi_task", _no_block)
        start, stop, step = psnr.split(":")
        config = tmp_path / "sim.cfg"
        config.write_text(f"psnr_start = {start}\npsnr_stop = {stop}\npsnr_step = {step}\n")
        out = tmp_path / "g.csv"
        for flags in ([f"--psnr={psnr}"], ["--config", str(config)]):
            assert main(["gmi", *flags, "--workers", "1", "--output", str(out)]) == 2, flags
            assert "config error" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("family, kind", [("qam", "qam_decomposed"), ("qci", "qci_lcd"), ("file", "exact2d")])
    @pytest.mark.parametrize("psnr", ["-3000:-3000:1", "3000:3000:1"], ids=["n0-1e300", "n0-1e-300"])
    def test_admitted_grid_ends_run_without_a_runtime_warning(self, family, kind, psnr, tmp_path):
        # -3000 and 3000 dB give n0 = harness.MAX_N0 and harness.MIN_N0 exactly
        assert harness.n0_from_psnr(-3000.0) == harness.MAX_N0
        assert harness.n0_from_psnr(3000.0) == harness.MIN_N0
        const = tmp_path / "qci16.csv"
        save_constellation(build_qci(16), const)
        flags = ["--family", family, "--M", "16", "--demapper", kind, "--constellation-file", str(const),
                 f"--psnr={psnr}", "--workers", "1", "--output", str(tmp_path / "out.csv")]
        for command, samples in ((["gmi"], "100000"), (["sweep"], "20000"), (["sweep", "--coded"], "2")):
            assert main([*command, *flags, "--samples", samples]) == 0, command
            rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
            assert rows and all(np.isfinite(float(r.split(",")[2])) for r in rows), command

    def test_bad_flag_value_is_a_config_error(self, capsys):
        assert main(["gmi", "--samples", "abc"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gmi", "sweep", "scatter", "complexity"])
    def test_one_run_flag_per_config_field(self, command):
        sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
        actions = [a for a in sub.choices[command]._actions if a.dest not in ("help", "config", "psnr", "mode")]
        keys = [f.name for f in fields(SimConfig) if f.name != "mode" and not f.name.startswith("psnr_")]
        assert [a.dest for a in actions] == keys
        assert [opt for a in actions for opt in a.option_strings] == [
            "--family", "--M", "--constellation-file", "--demapper", "--samples", "--target-errors",
            "--code-file", "--seed", "--workers", "--output"]

    def test_io_error_exit_code(self, tmp_path, capsys):
        bad_dim = tmp_path / "bad_dim.csv"
        bad_dim.write_text("# qci-constellation v1, M=2, dim=x\n0, 1.0, 0.0, 0\n1, -1.0, 0.0, 1\n")
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(b"# \xe9\n0, 1.0, 0.0, 0\n1, -1.0, 0.0, 1\n")
        latin1_alist = tmp_path / "latin1.alist"
        latin1_alist.write_bytes(b"3 2\xe9\n")
        argvs = [
            ["gray-check", "--family", "file", "--constellation-file", str(tmp_path / "missing.csv")],
            ["gray-check", "--family", "file", "--constellation-file", str(bad_dim)],
            ["gray-check", "--family", "file", "--constellation-file", str(latin1)],
            ["gmi", "--family", "file", "--demapper", "exact2d", "--constellation-file", str(latin1),
             "--workers", "1", "--output", str(tmp_path / "g.csv")],
            ["sweep", "--coded", "--code-file", str(latin1_alist), "--workers", "1",
             "--output", str(tmp_path / "s.csv")],
        ]
        for argv in argvs:
            rc = main(argv)
            assert rc == 3, argv
            assert "I/O error" in capsys.readouterr().err, argv

    def test_gmi_cli_writes_csv(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = main(["gmi", "--family", "qci", "--M", "16", "--demapper", "qci_lcd",
                   "--psnr", "11:11:1", "--samples", "100000", "--workers", "1",
                   "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("psnr_db,")
        assert len(lines) == 2

    def test_make_figures_smoke(self, tmp_path):
        rc = main(["make-figures", "--outdir", str(tmp_path / "figs"),
                   "--sizes", "16", "--samples", "100000", "--step", "2.5",
                   "--workers", "1"])
        assert rc == 0
        names = {p.name for p in (tmp_path / "figs").iterdir()}
        assert "fig_ber_analogue_gmi_m16.csv" in names
        assert "fig_iq_loss_gmi_m16.csv" in names
        assert "fig_scatter_m16.csv" in names
        assert "plot_figures.py" in names

    @pytest.mark.parametrize("flags", [["--sizes", "16,x"], ["--sizes", "16,1024"], ["--scatter-psnr", "nan"]],
                             ids=["16,x", "16,1024", "scatter-psnr-nan"])
    def test_make_figures_checks_every_size_before_the_first_run(self, flags, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(harness, "_gmi_task", _no_block)
        outdir = tmp_path / "figs"
        rc = main(["make-figures", "--outdir", str(outdir), *flags, "--workers", "1"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not outdir.exists()
