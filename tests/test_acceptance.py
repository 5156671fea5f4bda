"""Acceptance suite: one test per numbered criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`. The GMI-based criteria
use 10^6 Monte Carlo samples per grid point on a 0.25 dB grid (several
minutes); the coded-ordering criterion decodes a few thousand LDPC frames
per grid point (a few minutes more). PSNR windows were calibrated once and
are frozen below; every window keeps >= 0.45 dB of margin around the
measured crossing, orders of magnitude beyond the Monte Carlo jitter.
"""

import time

import numpy as np
import pytest

from qcilink import (
    SimConfig,
    build_qam,
    build_qci,
    demap,
    gray_check,
    llr_exact_2d,
    qam_context,
    qci_context,
    radial_forward,
    radial_inverse,
    run,
    scatter_dump,
)
from qcilink.metrics import _crossing_psnr

from oracles import brute_force_llr_2d

GMI_SAMPLES = 1_000_000
GMI_SEED = 20
CODED_SEED = 21

# frozen per-(M, curve) PSNR windows bracketing the 0.75*m crossings
GMI_WINDOWS = {
    16: {"qam": (11.25, 12.5), "lcd": (10.5, 11.75), "ml": (10.0, 11.25)},
    64: {"qam": (17.5, 18.75), "lcd": (16.5, 17.75), "ml": (16.0, 17.25)},
    256: {"qam": (23.0, 24.0), "lcd": (22.0, 23.0), "ml": (21.5, 22.5)},
}


def report(num, text):
    print(f"\nACCEPTANCE {num:2d}: PASS - {text}")


def _gmi_curve(family, M, demapper, window, seed=GMI_SEED):
    cfg = SimConfig(mode="gmi", family=family, M=M, demapper=demapper,
                    psnr_start=window[0], psnr_stop=window[1], psnr_step=0.25,
                    samples=GMI_SAMPLES, seed=seed, workers=2,
                    output=f"/tmp/qcilink_acc_{family}{M}_{demapper}.csv")
    return run(cfg)


@pytest.fixture(scope="module")
def gmi_curves():
    curves = {}
    for M, win in GMI_WINDOWS.items():
        curves[M] = {
            "qam": _gmi_curve("qam", M, "exact2d", win["qam"]),
            "lcd": _gmi_curve("qci", M, "qci_lcd", win["lcd"]),
            "ml": _gmi_curve("qci", M, "exact2d", win["ml"]),
            "remap": _gmi_curve("qci", M, "qci_remapped_2d", win["lcd"]),
            "comp": _gmi_curve("qci", M, "qci_lcd_compensated", win["lcd"]),
        }
    return curves


def _crossing(records, target):
    return _crossing_psnr([(r.psnr_db, r.value) for r in records], target)


def test_criterion_01_geometry_exactness():
    rng = np.random.default_rng(100)
    pts = rng.uniform(-1.0, 1.0, size=(100_000, 2))
    t0 = time.perf_counter()
    fwd = radial_forward(pts)
    back = radial_inverse(fwd)
    elapsed = time.perf_counter() - t0
    round_trip = np.max(np.linalg.norm(back - pts, axis=1))
    norm_err = np.max(np.abs(np.linalg.norm(fwd, axis=1)
                             - np.sqrt(2.0) * np.max(np.abs(pts), axis=1)))
    assert round_trip < 1e-12
    assert norm_err < 1e-12
    assert elapsed < 1.0
    report(1, f"geometry round trip {round_trip:.2e}, norm law {norm_err:.2e}, "
              f"{elapsed * 1e3:.0f} ms for 1e5 points")


def test_criterion_02_gray_preservation():
    t0 = time.perf_counter()
    for M in (16, 64, 256):
        assert gray_check(build_qci(M)).passed, f"Gray violated at M={M}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, f"Gray labeling preserved on the disc at M=16/64/256 ({elapsed * 1e3:.0f} ms)")


def _demapper_trials(M, count, seed):
    c = build_qam(M)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, M, size=count)
    n0 = rng.uniform(0.3, 1.5, size=count)
    y = c.points[idx] + rng.normal(0.0, np.sqrt(n0 / 2.0)[:, None], size=(count, 2))
    return c, y, n0


def test_criterion_03_decomposition_exactness():
    worst = 0.0
    for M in (16, 64):
        ctx = qam_context(M)
        c, y, n0 = _demapper_trials(M, 1000, seed=M)
        y_ch, pts = y * ctx.constellation.scale, ctx.constellation
        for yi, n0i in zip(y_ch, n0):
            a = llr_exact_2d(yi, pts, n0i).values
            b = demap("qam_decomposed", yi, ctx, n0i).values
            worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst < 1e-9
    report(3, f"I/Q-decomposed LLRs equal the 2D log-MAP, max |diff| {worst:.2e} "
              f"over 1000 trials at M=16 and 64")


def test_criterion_04_llr_definition_oracle():
    worst = 0.0
    for M in (16, 64):
        c, y, n0 = _demapper_trials(M, 1000, seed=M)
        pts, labs = c.points.tolist(), c.labels.tolist()
        for yi, n0i in zip(y, n0):
            got = llr_exact_2d(yi, c, n0i).values[0]
            want = brute_force_llr_2d(yi, pts, labs, n0i)
            worst = max(worst, float(np.max(np.abs(got - np.asarray(want)))))
    assert worst < 1e-9
    report(4, f"log-MAP matches the naive double-loop oracle, max |diff| {worst:.2e}")


def test_criterion_05_complexity_counters():
    lines = []
    for M in (16, 64, 256, 1024, 4096):
        qam, qci = qam_context(M), qci_context(M)
        y = np.zeros((16, 2))
        exact = llr_exact_2d(y, qam.constellation, 1.0).distance_evals / 16
        decomp = demap("qam_decomposed", y, qam, 1.0).distance_evals / 16
        lcd = demap("qci_lcd", y, qci, 1.0).distance_evals / 16
        assert exact == M
        assert decomp == 2 * np.sqrt(M)
        assert lcd == 2 * np.sqrt(M)
        lines.append(f"M={M}:{int(exact)}/{int(lcd)}")
    report(5, "distance evals per symbol (full/decomposed) " + ", ".join(lines))


def test_criterion_06_shaping_gain(gmi_curves):
    gaps = {}
    for M in (16, 64, 256):
        target = 0.75 * int(np.log2(M))
        gaps[M] = _crossing(gmi_curves[M]["qam"], target) - _crossing(gmi_curves[M]["lcd"], target)
        assert 0.3 <= gaps[M] <= 1.1, f"shaping gap {gaps[M]:.3f} dB out of range at M={M}"
    assert gaps[64] >= gaps[16] - 0.05
    assert gaps[256] >= gaps[64] - 0.05
    report(6, "shaping gain over square QAM at 0.75*m: "
              + ", ".join(f"M={M}: {gaps[M]:.3f} dB" for M in gaps))


def test_criterion_07_lcd_loss(gmi_curves):
    losses = {}
    for M in (16, 64, 256):
        target = 0.75 * int(np.log2(M))
        losses[M] = _crossing(gmi_curves[M]["lcd"], target) - _crossing(gmi_curves[M]["ml"], target)
        assert 0.3 <= losses[M] <= 0.9, f"LCD loss {losses[M]:.3f} dB out of range at M={M}"
    report(7, "low-complexity detection loss vs full ML: "
              + ", ".join(f"M={M}: {losses[M]:.3f} dB" for M in losses))


def test_criterion_08_iq_decomposition_loss(gmi_curves):
    gaps = {}
    for M in (16, 64, 256):
        target = 0.75 * int(np.log2(M))
        gaps[M] = _crossing(gmi_curves[M]["lcd"], target) - _crossing(gmi_curves[M]["remap"], target)
        assert gaps[M] < 0.15, f"I/Q split loss {gaps[M]:.3f} dB too large at M={M}"
    report(8, "I/Q decomposition loss vs remapped 2D demapping: "
              + ", ".join(f"M={M}: {gaps[M]:.3f} dB" for M in gaps))


def test_criterion_09_affine_compensation(gmi_curves):
    improvements = {}
    for M in (16, 64, 256):
        lcd, comp = gmi_curves[M]["lcd"], gmi_curves[M]["comp"]
        for a, b in zip(lcd, comp):
            assert b.value >= a.value - 3.0 * np.hypot(a.stderr, b.stderr), (
                f"compensation hurt GMI at M={M}, PSNR={a.psnr_db}"
            )
        target = 0.75 * int(np.log2(M))
        improvements[M] = _crossing(lcd, target) - _crossing(comp, target)
    assert max(improvements.values()) >= 0.05
    report(9, "gain-only compensation never hurts; horizontal improvement "
              + ", ".join(f"M={M}: {improvements[M]:+.3f} dB" for M in improvements))


def test_criterion_10_coded_ordering():
    records = {}
    for family, kind in (("qam", "qam_decomposed"), ("qci", "qci_lcd")):
        cfg = SimConfig(mode="coded_ber", family=family, M=16, demapper=kind,
                        psnr_start=12.5, psnr_stop=13.75, psnr_step=0.25,
                        samples=3000, target_errors=100, seed=CODED_SEED, workers=2,
                        output=f"/tmp/qcilink_acc_coded_{family}.csv")
        records[family] = {r.psnr_db: r.value for r in run(cfg) if r.metric == "ber"}
    in_window = [p for p, ber in records["qam"].items() if 1e-3 <= ber <= 1e-2]
    assert in_window, f"no grid point with QAM BER in [1e-3, 1e-2]: {records['qam']}"
    for p in in_window:
        assert records["qci"][p] < records["qam"][p], (
            f"ordering violated at PSNR {p}: qci {records['qci'][p]} vs qam {records['qam'][p]}"
        )
    summary = ", ".join(
        f"{p} dB: qam {records['qam'][p]:.2e} > qci {records['qci'][p]:.2e}" for p in in_window
    )
    report(10, f"rate-3/4 coded BER ordering holds at {summary}")


def test_criterion_11_cluster_center_mismatch():
    ctx = qci_context(16)
    n0 = 10 ** (-1.1)  # moderate noise, PSNR 11 dB
    dump = scatter_dump(ctx, n0, 40_000, np.random.default_rng(7))
    grid = ctx.qam_grid.points
    corner = int(np.argmax(np.sum(grid ** 2, axis=1)))
    cloud = dump.remapped[dump.point_index == corner]
    offset = cloud.mean(axis=0) - grid[corner]
    direction = offset / np.linalg.norm(offset)
    proj = cloud @ direction
    sem = proj.std(ddof=1) / np.sqrt(len(proj))
    significance = abs(proj.mean() - grid[corner] @ direction) / sem
    assert significance > 5.0
    report(11, f"remapped corner cloud center off its grid point by "
               f"{np.linalg.norm(offset):.4f} ({significance:.1f} standard errors, "
               f"{len(proj)} samples)")


def test_criterion_12_worker_determinism(tmp_path):
    outputs = []
    for workers in (1, 4, 8):
        out = tmp_path / f"det_w{workers}.csv"
        cfg = SimConfig(mode="gmi", family="qci", M=16, demapper="qci_lcd",
                        psnr_start=11.0, psnr_stop=11.5, psnr_step=0.25,
                        samples=250_000, seed=33, workers=workers, output=str(out))
        run(cfg)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    report(12, f"byte-identical CSV across worker counts 1/4/8 "
               f"({len(outputs[0])} bytes)")
