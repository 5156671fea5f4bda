import argparse
import contextlib
import json
import os
import resource
import signal
import subprocess
import sys
import threading
from dataclasses import fields
from pathlib import Path

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
from oracles import deinterleave
from qcilink.cli import main
from qcilink.errors import ConfigError
from qcilink.harness import (FAMILIES, build_context, resolved_samples, resolved_target_errors,
                             validate_config, write_records_csv)
from qcilink.metrics import SweepRecord

# first use of the OpenBLAS helper: a workers=1 run restores this count
_OPENBLAS = harness._openblas()


def _no_block(args):
    pytest.fail("a Monte Carlo block ran")


def _no_pool(*args, **kwargs):
    pytest.fail("a block pool started")


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
        const = qci16_file if family == "file" else None
        cfg = SimConfig(mode="gmi", family=family, M=16, demapper=kind,
                        constellation_file=const, output=str(tmp_path / "g.csv"))
        try:
            validate_config(cfg)
        except ConfigError:
            assert (family, kind) not in VALID_PAIRS
            rc = main(["gmi", "--family", family, "--M", "16", "--demapper", kind,
                       *(["--constellation-file", const] if const else []), "--psnr", "11:11:1",
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
                          code_file=str(toy_alist) if mode == "coded_ber" else None,
                          psnr_start=11.0, psnr_stop=12.0, psnr_step=1.0,
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
        cfg = SimConfig(mode="complexity", family=family, M=16,
                        constellation_file=qci16_file if family == "file" else None,
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
            [SweepRecord(8.0, "evals_per_symbol", 16.0, 0.0, 256, "qam16", "exact2d", 1)], out),
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

    @pytest.mark.parametrize("mode, M, kind, psnr", [("gmi", 64, "maxlog2d", 16.5),
                                                     ("gmi", 16, "qci_lcd_compensated", 11.0),
                                                     ("uncoded_ber", 16, "qci_lcd", 14.0),
                                                     ("uncoded_ber", 64, "maxlog2d", 19.0)])
    def test_workers_do_not_change_output_of(self, mode, M, kind, psnr, tmp_path):
        base = dict(mode=mode, family="qci", M=M, demapper=kind, psnr_start=psnr, psnr_stop=psnr + 1.0,
                    psnr_step=1.0, samples=250_000 if mode == "gmi" else 600_000, seed=8)
        outputs = []
        for workers in (1, 2, 3):
            path = tmp_path / f"w{workers}.csv"
            run(SimConfig(workers=workers, output=str(path), **base))
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

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
    def test_pool_workers_run_with_the_blas_budget(self):
        # forked workers inherit the count set in the parent
        with harness._block_pool(2, "coded_ber") as (pool_map, workers):
            counts = list(pool_map(_openblas_threads, range(4)))
        assert workers == 2
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
    with harness._block_pool(0, "gmi") as (pool_map, workers):
        assert workers == 1
        assert pool_map is map


def _refaults(_):
    """Minor page faults of this thread on an 8 MB array allocated where one was just freed."""
    np.ones(1_000_000)
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    np.ones(1_000_000)
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before


def test_pool_workers_reuse_freed_block_buffers():
    if not harness._fix_malloc_thresholds():
        pytest.skip("libc has no mallopt")
    for mode in ("gmi", "coded_ber"):  # pool threads, then forked workers
        with harness._block_pool(2, mode) as (pool_map, _):
            faults = list(pool_map(_refaults, range(2)))
        # a fresh 8 MB mapping faults its 1954 pages in
        assert max(faults) < 100, mode


# a pooled coded run, then the same run through the CLI, whose block task
# SIGKILLs its own worker on the first block of point 1; prints what the
# parent saw as JSON. coded_ber is the mode whose blocks run in forked
# worker processes.
_KILLED_WORKER_SCRIPT = """
import json, multiprocessing, os, signal, sys, time
from concurrent.futures.process import BrokenProcessPool
from qcilink import SimConfig, cli, harness, run

coded_task = harness._coded_task

def dying_task(args):
    if args[:2] == (1, 0):
        os.kill(os.getpid(), signal.SIGKILL)
    return coded_task(args)

harness._coded_task = dying_task
start, raised_after = time.monotonic(), None
try:
    run(SimConfig(mode="coded_ber", family="qam", demapper="qam_decomposed", code_file=sys.argv[2],
                  psnr_start=10.0, psnr_stop=12.0, psnr_step=1.0, samples=50, workers=2, output=None))
except BrokenProcessPool:
    raised_after = time.monotonic() - start
rc = cli.main(["sweep", "--coded", "--family", "qam", "--demapper", "qam_decomposed", "--code-file", sys.argv[2],
               "--psnr", "10:12:1", "--samples", "50", "--workers", "2", "--output", sys.argv[1]])
try:
    os.waitpid(-1, os.WNOHANG)
    os_children = True
except ChildProcessError:
    os_children = False
print(json.dumps({"raised_after_s": raised_after, "rc": rc, "worker_state": len(harness._WORKER),
                  "active_children": len(multiprocessing.active_children()), "os_children": os_children}))
"""


def _src_env() -> dict:
    """The environment of a fresh interpreter that imports this qcilink."""
    src = str(Path(harness.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_a_killed_worker_fails_the_run_and_the_cli_exits_5(toy_alist, tmp_path):
    out = tmp_path / "c.csv"
    # its own session, so that a hung run and every worker it started can be ended together
    proc = subprocess.Popen([sys.executable, "-c", _KILLED_WORKER_SCRIPT, str(out), str(toy_alist)], env=_src_env(),
                            text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a run that lost a worker was still running after 30 s")
    assert proc.returncode == 0, stderr
    seen = json.loads(stdout.splitlines()[-1])
    assert seen["raised_after_s"] is not None and seen["raised_after_s"] < 10
    assert seen["rc"] == 5
    assert stderr.splitlines() == ["a worker process died (killed by the OS?); the run was abandoned"]
    assert (seen["worker_state"], seen["active_children"], seen["os_children"]) == (0, 0, False)
    assert not out.exists()


def _pool_threads() -> list:
    return [t for t in threading.enumerate() if t.name.startswith("qcilink-block")]


def test_a_failed_block_on_a_pool_thread_fails_the_run(monkeypatch):
    gmi_task = harness._gmi_task

    def failing_task(args):
        if args[:2] == (1, 0):
            raise ArithmeticError("block (1, 0) failed")
        return gmi_task(args)

    monkeypatch.setattr(harness, "_gmi_task", failing_task)
    with pytest.raises(ArithmeticError, match=r"block \(1, 0\) failed"):
        run(SimConfig(mode="gmi", psnr_start=10.0, psnr_stop=12.0, psnr_step=1.0, samples=250_000, workers=2,
                      output=None))
    assert harness._WORKER == {}
    assert _pool_threads() == []


def _affinity_of_a_thread_that_met(barrier):
    barrier.wait()  # so that every task runs on a thread of its own
    return frozenset(os.sched_getaffinity(0))


def test_pool_threads_run_on_disjoint_cpu_shares():
    mask = os.sched_getaffinity(0)
    if len(mask) < 2:
        pytest.skip("a 1-CPU affinity mask has no shares to split")
    with harness._block_pool(2, "gmi") as (pool_map, _):
        a, b = pool_map(_affinity_of_a_thread_that_met, [threading.Barrier(2, timeout=10)] * 2)
    assert a and b and not a & b
    assert a | b == mask
    assert os.sched_getaffinity(0) == mask
    assert _pool_threads() == []


def test_more_pool_threads_than_cpus_each_take_their_own_share():
    # each initializer pops its own share; a lost update would hand two
    # threads one share and leave another unused
    workers = 2 * len(os.sched_getaffinity(0)) + 1
    if workers > 9:
        pytest.skip("an affinity mask this wide would start too many threads for a unit test")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with harness._block_pool(workers, "gmi") as (pool_map, _):
            masks = list(pool_map(_affinity_of_a_thread_that_met, [threading.Barrier(workers, timeout=10)] * workers))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(map(sorted, masks)) == sorted(harness._cpu_shares(workers))
    assert _pool_threads() == []


def test_pool_threads_keep_the_callers_mask_without_sched_setaffinity(monkeypatch):
    mask = os.sched_getaffinity(0)
    monkeypatch.delattr(os, "sched_setaffinity")
    with harness._block_pool(2, "gmi") as (pool_map, _):
        masks = set(pool_map(_affinity_of_a_thread_that_met, [threading.Barrier(2, timeout=10)] * 2))
    assert masks == {frozenset(mask)}


@pytest.mark.parametrize("cpus, workers, shares", [({0, 1, 2, 3}, 2, [[0, 2], [1, 3]]),
                                                   ({1, 5}, 3, [[1], [5], [1]]),
                                                   ({0, 1}, 1, [[0, 1]])])
def test_cpu_shares_split_the_mask_and_go_round_robin_past_its_cpus(cpus, workers, shares, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    assert harness._cpu_shares(workers) == shares


def test_import_leaves_multiprocessing_out():
    # the fork pool imports it when it starts; threads and inline runs never need it
    proc = subprocess.run([sys.executable, "-c", "import sys, qcilink; print('multiprocessing' in sys.modules)"],
                          env=_src_env(), text=True, capture_output=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


# in a fresh interpreter, which has not imported numpy.random: does each
# worker of a pool find it imported?
_FRESH_POOL_SCRIPT = """
import sys
from qcilink import harness

def imported(name):
    return name in sys.modules

with harness._block_pool(2, "coded_ber") as (pool_map, _):
    print(all(pool_map(imported, ["numpy.random"] * 2)))
"""


def test_pool_workers_inherit_numpy_random():
    proc = subprocess.run([sys.executable, "-c", _FRESH_POOL_SCRIPT], env=_src_env(), text=True,
                          capture_output=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]


class TestUncodedMode:
    def test_stops_at_error_target(self, tmp_path):
        cfg = SimConfig(mode="uncoded_ber", family="qam", M=16, demapper="qam_decomposed",
                        psnr_start=6.0, psnr_stop=6.0, psnr_step=1.0,
                        samples=10_000_000, target_errors=100, seed=1, workers=1,
                        output=str(tmp_path / "u.csv"))
        rec = run(cfg)[0]
        assert round(rec.value * rec.trials) >= 100
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
            want = deinterleave(np.ascontiguousarray(frame.values).reshape(len(llrs), -1), perm)
            assert llrs.tobytes() == want.tobytes()

    def test_ber_stderr_counts_frames(self, toy_alist, monkeypatch):
        # bit errors come in frame-sized bursts, so the BER's error bar is the
        # standard error of the per-frame error rates e_f / k, not a binomial over bits
        sent, decoded = [], []
        encode, info_bits_of = harness.encode, harness.info_bits_of
        monkeypatch.setattr(harness, "encode", lambda code, info: sent.append(info) or encode(code, info))
        monkeypatch.setattr(harness, "info_bits_of",
                            lambda code, bits: decoded.append(info_bits_of(code, bits)) or decoded[-1])
        ber, fer = run(SimConfig(mode="coded_ber", family="qci", M=16, demapper="qci_lcd",
                                 code_file=str(toy_alist), psnr_start=9.0, psnr_stop=9.0, samples=40,
                                 target_errors=10**6, workers=1, output=None))
        e = np.sum(np.concatenate(decoded) != np.concatenate(sent), axis=1)
        k, frames = sent[0].shape[1], e.size
        assert frames == 40 and 0 < np.count_nonzero(e) < frames
        assert (ber.value, ber.trials) == (e.sum() / (frames * k), frames * k)
        assert ber.stderr == pytest.approx(np.std(e / k) / np.sqrt(frames), rel=1e-12)
        assert fer.stderr == pytest.approx(np.std(e > 0) / np.sqrt(frames), rel=1e-12)

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


def _count_dispatch(monkeypatch):
    """Wrap the map that ``_block_pool`` yields, in the parent; returns the list of task batches it was given."""
    batches, block_pool = [], harness._block_pool

    @contextlib.contextmanager
    def counted_pool(*args, **kwargs):
        with block_pool(*args, **kwargs) as (dispatch, workers):
            def counted(fn, tasks):
                batches.append(list(tasks))
                return dispatch(fn, batches[-1])

            yield counted, workers

    monkeypatch.setattr(harness, "_block_pool", counted_pool)
    return batches


class TestScheduler:
    @staticmethod
    def _runs_per_workers(monkeypatch, tmp_path, **base):
        """(CSV bytes, blocks dispatched) of the run at workers 1, 2 and 3."""
        batches, out = _count_dispatch(monkeypatch), []
        for workers in (1, 2, 3):
            path = tmp_path / f"w{workers}.csv"
            batches.clear()
            run(SimConfig(workers=workers, output=str(path), **base))
            out.append((path.read_bytes(), sum(map(len, batches))))
        return out

    def test_uncoded_output_does_not_depend_on_the_workers(self, monkeypatch, tmp_path):
        # a target of 100 bit errors in 115 000-symbol budgets (four 25k-symbol
        # blocks and a 15k one): 18 and 19 dB stop in block 0, 20 dB in block 3,
        # and 21 dB runs out of budget
        base = dict(mode="uncoded_ber", family="qam", M=16, demapper="qam_decomposed", psnr_start=18.0,
                    psnr_stop=21.0, psnr_step=1.0, samples=460_000, target_errors=100, seed=6)
        (w1, sent1), (w2, sent2), (w3, sent3) = self._runs_per_workers(monkeypatch, tmp_path, **base)
        assert w1 == w2 == w3
        records = run(SimConfig(workers=1, output=None, **base))
        assert [r.trials for r in records] == [100_000, 100_000, 400_000, 460_000]
        assert [round(r.value * r.trials) >= 100 for r in records] == [True, True, True, False]
        # 11 blocks are kept; at workers=3 the two open points get two blocks
        # a round, so 20 dB gets blocks 3 and 4 together and drops block 4
        assert (sent1, sent2, sent3) == (11, 11, 12)

    def test_coded_output_does_not_depend_on_the_workers(self, monkeypatch, toy_alist, tmp_path):
        # 60-frame budgets (25 + 25 + 10) and a target of 5 frame errors:
        # 10 dB stops in block 0, 10.5 dB in block 1, 11 dB in its partial
        # block 2, and 11.5 and 12 dB run out of budget
        base = dict(mode="coded_ber", family="qam", M=16, demapper="qam_decomposed", code_file=str(toy_alist),
                    psnr_start=10.0, psnr_stop=12.0, psnr_step=0.5, samples=60, target_errors=5, seed=4)
        (w1, _), (w2, _), (w3, _) = self._runs_per_workers(monkeypatch, tmp_path, **base)
        assert w1 == w2 == w3
        fer = [r for r in run(SimConfig(workers=1, output=None, **base)) if r.metric == "fer"]
        assert [r.trials for r in fer] == [25, 50, 60, 60, 60]
        assert [round(r.value * r.trials) >= 5 for r in fer] == [True, True, True, False, False]

    def test_points_that_stop_in_block_0_dispatch_one_block_each(self, monkeypatch):
        # every point meets the default 100-error target in its first block,
        # so no worker computes a block that early stopping throws away
        batches = _count_dispatch(monkeypatch)
        records = run(SimConfig(mode="uncoded_ber", family="qam", M=16, demapper="qam_decomposed",
                                psnr_start=10.0, psnr_stop=13.0, psnr_step=1.0, seed=4, workers=2, output=None))
        assert [r.trials for r in records] == [100_000] * 4
        assert [(p, b) for batch in batches for p, b, *_ in batch] == [(0, 0), (1, 0), (2, 0), (3, 0)]

    def test_gmi_sends_every_block_in_one_map_after_the_estimates(self, monkeypatch):
        batches, estimates = _count_dispatch(monkeypatch), []
        estimate = harness.estimate_affine_compensation

        def counted_estimate(ctx, n0, samples, rng):
            assert len(batches) == 1, "an estimate ran outside the first map"
            estimates.append(n0)
            return estimate(ctx, n0, samples, rng)

        monkeypatch.setattr(harness, "estimate_affine_compensation", counted_estimate)
        run(SimConfig(mode="gmi", family="qci", M=16, demapper="qci_lcd_compensated", psnr_start=10.0,
                      psnr_stop=11.0, psnr_step=0.5, samples=250_000, workers=2, output=None))
        n0s = [harness.n0_from_psnr(p) for p in (10.0, 10.5, 11.0)]
        # one estimate task per point, on the pool, then every block in one map
        assert sorted(estimates) == sorted(n0s)
        assert len(batches) == 2
        assert batches[0] == list(enumerate(n0s))
        assert [(p, b) for p, b, *_ in batches[1]] == [(p, b) for p in range(3) for b in range(2)]


class TestScatterMode:
    def test_writes_dump(self, tmp_path):
        out = tmp_path / "sc.csv"
        cfg = SimConfig(mode="scatter", family="qci", M=16,
                        psnr_start=11.0, psnr_stop=11.0, samples=1000,
                        output=str(out))
        assert run(cfg) == []
        assert out.exists()
        assert (tmp_path / "sc_centers.csv").exists()

    @pytest.mark.parametrize("family, M", [("qci", 16), ("qci", 1024), ("qam", 256)])
    def test_rows_format_each_value_of_the_dump(self, family, M, monkeypatch, tmp_path):
        # each row of the dump by numpy scalars, as the rows were written before
        # the grid points were formatted once per run
        dumps, scatter_dump = [], harness.scatter_dump
        monkeypatch.setattr(harness, "scatter_dump", lambda *a: dumps.append(scatter_dump(*a)) or dumps[-1])
        out = tmp_path / "sc.csv"
        run(SimConfig(mode="scatter", family=family, M=M, psnr_start=9.0, psnr_stop=9.0, samples=3000,
                      output=str(out)))
        rows = out.read_text().splitlines(keepends=True)[2:]
        d = dumps[0]
        assert rows == ["%.10g,%.10g,%.10g,%.10g\n" % r for r in zip(*d.qam_ref.T, *d.remapped.T)]


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
        const = ["--constellation-file", qci16_file] if "file" in flags else []
        rc = main([command, *flags, *const, "--M", "16", "--psnr", "12:12:1", "--output", str(out)])
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

        def no_pool(*args, **kwargs):
            pytest.fail("the pool started")

        monkeypatch.setattr(harness, "_block_pool", no_pool)
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

    @pytest.mark.parametrize("output", ["", "newdir/"], ids=["empty", "trailing-separator"])
    def test_output_that_names_no_file_exits_3_before_any_block(self, output, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(harness, "_gmi_task", _no_block)
        rc = main(["gmi", "--psnr", "10:12:1", "--samples", "100000", "--workers", "1", "--output", output])
        assert rc == 3
        assert "the output path names no file" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["complexity", "--psnr", "12:12:1"],
        ["gmi", "--family", "qam", "--demapper", "qam_decomposed", "--psnr", "12:12:1", "--workers", "1"],
        ["gray-check", "--family", "qam"],
        ["constellation", "export", "--output", "x.csv"],
    ])
    def test_constellation_file_without_family_file_exits_2(self, argv, qci16_file, monkeypatch, tmp_path,
                                                            capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(harness, "_gmi_task", _no_block)
        assert main([*argv, "--constellation-file", qci16_file]) == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["gmi", "--samples", "100000"],
        ["sweep"],
        ["scatter"],
        ["complexity"],
    ])
    def test_code_file_outside_coded_sweeps_exits_2(self, argv, toy_alist, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(harness, "_block_pool", _no_pool)
        assert main([*argv, "--psnr", "12:12:1", "--workers", "1", "--code-file", str(toy_alist)]) == 2
        assert "code_file is read only by mode 'coded_ber'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["gmi", "--samples", "100000"],
        ["gmi", "--samples", "100000", "--code-file", "c.alist"],
        ["scatter"],
        ["complexity"],
    ])
    def test_target_errors_outside_the_ber_modes_exits_2(self, argv, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(harness, "_block_pool", _no_pool)
        assert main([*argv, "--psnr", "12:12:1", "--workers", "1", "--target-errors", "50"]) == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["gmi", "--samples", "100000", "--psnr", "12:12:1"],
        ["sweep", "--psnr", "12:12:1"],
        ["sweep", "--coded", "--psnr", "12:12:1"],
        ["scatter", "--psnr", "12:12:1"],
        ["complexity", "--psnr", "12:12:1"],
        ["make-figures", "--sizes", "16", "--outdir", "figs"],
    ])
    def test_workers_above_the_cap_exits_2_before_any_pool(self, argv, monkeypatch, tmp_path, capsys):
        # a fork pool would start every worker at its first map; none may start
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(harness, "_block_pool", _no_pool)
        assert main([*argv, "--workers", "100000"]) == 2
        assert main([*argv, "--workers", str(harness.MAX_WORKERS + 1)]) == 2
        assert capsys.readouterr().err.count(f"workers must not exceed {harness.MAX_WORKERS}") == 2
        assert list(tmp_path.iterdir()) == []

    def test_workers_cap_admits_the_benchmark_pool(self):
        assert harness.MAX_WORKERS >= 4
        validate_config(SimConfig(workers=harness.MAX_WORKERS))

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
        flags = ["--family", family, "--M", "16", "--demapper", kind, f"--psnr={psnr}", "--workers", "1",
                 "--output", str(tmp_path / "out.csv")]
        if family == "file":
            flags += ["--constellation-file", str(const)]
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
        # a header M= that disagrees with the rows, as in a truncated file
        truncated = tmp_path / "truncated.csv"
        truncated.write_text("# qci-constellation v1, M=16, dim=2\n0, 1.0, 0.0, 0\n1, -1.0, 0.0, 1\n")
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(b"# \xe9\n0, 1.0, 0.0, 0\n1, -1.0, 0.0, 1\n")
        latin1_alist = tmp_path / "latin1.alist"
        latin1_alist.write_bytes(b"3 2\xe9\n")
        # a header dim other than 1 or 2, or dim=1 with a nonzero Q coordinate
        dims = []
        for name, dim, q in (("dim3", 3, 0.0), ("dim0", 0, 0.0), ("dim1_with_q", 1, 0.5)):
            dims.append(tmp_path / f"{name}.csv")
            dims[-1].write_text(f"# qci-constellation v1, M=2, dim={dim}\n0, 1.0, {q}, 0\n1, -1.0, 0.0, 1\n")
        argvs = [
            ["gray-check", "--family", "file", "--constellation-file", str(tmp_path / "missing.csv")],
            ["gray-check", "--family", "file", "--constellation-file", str(bad_dim)],
            ["gray-check", "--family", "file", "--constellation-file", str(truncated)],
            *[["gray-check", "--family", "file", "--constellation-file", str(path)] for path in dims],
            *[["gmi", "--family", "file", "--demapper", "exact2d", "--constellation-file", str(path),
               "--workers", "1", "--output", str(tmp_path / "g.csv")] for path in dims],
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
