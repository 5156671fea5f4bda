import os

import numpy as np
import pytest

from qcilink import (
    DEMAPPER_KINDS,
    AffineCompensation,
    SimConfig,
    build_qci,
    demap,
    harness,
    parse_config,
    psnr_grid,
    run,
    save_constellation,
)
from qcilink.cli import main
from qcilink.errors import ConfigError
from qcilink.harness import FAMILIES, build_context, resolved_samples, resolved_target_errors, validate_config

# first use of the OpenBLAS helper: a workers=1 run restores this count
_OPENBLAS = harness._openblas()


class TestParseConfig:
    def test_minimal_file_fills_defaults(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("family = qci\nM = 16\nmode = gmi\npsnr_start = 10\npsnr_stop = 12\n")
        cfg = parse_config(path)
        assert cfg.seed == 1
        assert cfg.workers == 0
        assert cfg.max_iters == 50
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
        ({"comp_samples": 100}, "comp_samples"),
        ({"max_iters": 0}, "max_iters"),
    ])
    def test_validation_errors(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(None, overrides)


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
    def test_compensated_kind_needs_gmi_mode(self, mode):
        with pytest.raises(ConfigError, match="compensation"):
            validate_config(SimConfig(mode=mode, family="qci", demapper="qci_lcd_compensated"))

    @pytest.mark.parametrize("family,kinds", [
        ("qam", ["exact2d", "maxlog2d", "qam_decomposed", "qci_lcd", "qci_remapped_2d"]),
        ("qci", ["exact2d", "maxlog2d", "qci_lcd", "qci_remapped_2d"]),
        ("file", ["exact2d", "maxlog2d"]),
    ])
    def test_complexity_kinds_per_family(self, family, kinds, qci16_file, tmp_path):
        cfg = SimConfig(mode="complexity", family=family, M=16, demapper="exact2d",
                        constellation_file=qci16_file, psnr_start=12.0, psnr_stop=12.0,
                        output=str(tmp_path / "cx.csv"))
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

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "cx.csv"
        run(SimConfig(mode="complexity", family="qam", M=16, output=str(out)))
        header = out.read_text().splitlines()[0]
        assert header == "psnr_db,metric,value,stderr,trials,constellation,demapper,seed"


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

    def test_constellation_export_round_trip(self, tmp_path, capsys):
        out = tmp_path / "qci16.csv"
        assert main(["constellation", "export", "--family", "qci", "--M", "16",
                     "--output", str(out)]) == 0
        from qcilink import build_qci, load_constellation
        loaded = load_constellation(out)
        assert loaded.M == 16
        np.testing.assert_array_equal(loaded.points, build_qci(16).points)

    def test_complexity_command(self, tmp_path, capsys):
        rc = main(["complexity", "--family", "qci", "--M", "64",
                   "--psnr", "12:12:1", "--output", str(tmp_path / "c.csv")])
        assert rc == 0
        assert "16 distance evals/symbol" in capsys.readouterr().out

    def test_config_error_exit_code(self, capsys):
        rc = main(["gmi", "--family", "qci", "--M", "16", "--demapper", "bogus",
                   "--psnr", "10:11:0.5"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

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
        def no_block(args):
            pytest.fail("a Monte Carlo block ran before the output was checked")

        monkeypatch.setattr(harness, "_gmi_task", no_block)
        rc = main(["gmi", "--family", "qci", "--M", "16", "--psnr", "10:12:0.5",
                   "--samples", "100000", "--workers", "1",
                   "--output", "/no/such/dir/x.csv"])
        assert rc == 3
        assert "I/O error" in capsys.readouterr().err

    def test_bad_psnr_flag_exit_code(self):
        assert main(["gmi", "--psnr", "10-20-1"]) == 2

    def test_io_error_exit_code(self, tmp_path, capsys):
        rc = main(["gray-check", "--family", "file",
                   "--constellation-file", str(tmp_path / "missing.csv")])
        assert rc == 3
        assert "I/O error" in capsys.readouterr().err

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
