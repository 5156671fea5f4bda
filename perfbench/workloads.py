"""The benchmark's workloads: each is a fixed list of ``SimConfig`` inputs.

A workload runs as a closed loop: one ``qcilink.harness.run()`` call after
another, from one process, every call with the same worker count. The
benchmark seed becomes ``SimConfig.seed``; the program sees nothing else.

PSNR windows are the frozen acceptance windows (tests/test_acceptance.py)
or the criterion-10 waterfall. Sample counts are sized so that one pass
over a workload (a "cycle") takes a few seconds on two cores, which lets a
run measure several cycles and report their median.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

# Two GMI blocks per grid point (the harness uses 125k-symbol blocks), so
# both workers of a two-process pool get work at every point.
GMI_SAMPLES = 250_000
# Coded frame budget per grid point: two 25-frame blocks, one per worker.
CODED_FRAMES = 50
# Cap on pool size, so a many-core host does not multiply worker memory.
MAX_WORKERS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    specs: tuple  # SimConfig keyword dicts, without seed/workers/output


def _gmi(family, M, kind, start, stop, step):
    return dict(mode="gmi", family=family, M=M, demapper=kind,
                psnr_start=start, psnr_stop=stop, psnr_step=step, samples=GMI_SAMPLES)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gmi_lcd",
            "low-complexity GMI traffic: noise draw, inverse radial map, PAM demapper and GMI scoring",
            (
                # ends of the acceptance "lcd" and "qam" windows at M=16 and M=64
                _gmi("qci", 16, "qci_lcd", 10.5, 11.75, 1.25),
                _gmi("qci", 16, "qci_lcd_compensated", 10.5, 11.75, 1.25),
                _gmi("qam", 16, "qam_decomposed", 11.25, 12.5, 1.25),
                _gmi("qci", 64, "qci_lcd", 16.5, 17.75, 1.25),
                _gmi("qci", 64, "qci_lcd_compensated", 16.5, 17.75, 1.25),
                _gmi("qam", 64, "qam_decomposed", 17.5, 18.75, 1.25),
            ),
        ),
        Workload(
            "gmi_ml",
            "O(M) GMI traffic: (N, M) distance matrices, exp and BLAS products under the process pool",
            (
                # 22 dB lies in both the M=256 "ml" and "lcd" windows, so
                # exact2d and qci_remapped_2d meet at a common point
                _gmi("qci", 256, "exact2d", 22.0, 22.0, 0.25),
                _gmi("qci", 256, "qci_remapped_2d", 22.0, 22.0, 0.25),
                _gmi("qci", 64, "maxlog2d", 16.5, 16.5, 0.25),
            ),
        ),
        Workload(
            "coded",
            "LDPC-coded BER over the criterion-10 waterfall: encode and BP decode dominate",
            tuple(
                # half the acceptance step, so that some qam point lands in
                # the criterion-10 BER window [1e-3, 1e-2] whatever the seed
                dict(mode="coded_ber", family=family, M=16, demapper=kind,
                     psnr_start=12.5, psnr_stop=13.75, psnr_step=0.125, samples=CODED_FRAMES)
                for family, kind in (("qci", "qci_lcd"), ("qam", "qam_decomposed"))
            ),
        ),
        Workload(
            "uncoded_short",
            "short uncoded BER sweeps plus complexity and scatter runs: pool start-up and wave dispatch dominate",
            (
                dict(mode="uncoded_ber", family="qci", M=16, demapper="qci_lcd",
                     psnr_start=16.0, psnr_stop=22.0, psnr_step=0.5),
                dict(mode="uncoded_ber", family="qam", M=64, demapper="qam_decomposed",
                     psnr_start=20.0, psnr_stop=26.0, psnr_step=0.5),
                dict(mode="complexity", family="qci", M=64, demapper="qci_lcd",
                     psnr_start=16.0, psnr_stop=16.0),
                dict(mode="scatter", family="qci", M=16, demapper="qci_lcd",
                     psnr_start=16.0, psnr_stop=16.0),
            ),
        ),
    )
}


def pool_workers() -> int:
    """Worker count of the measured runs: what ``workers=0`` resolves to, capped."""
    return max(1, min(os.cpu_count() or 1, MAX_WORKERS))


def configs(harness, name: str, seed: int, workers: int, out_dir, smoke: bool = False) -> list:
    """The workload's ``SimConfig`` list for one benchmark seed.

    ``smoke`` shrinks every run to the harness minimum (GMI_MIN_SAMPLES
    symbols per GMI point, one coded block, a short bit budget) for tests.
    """
    from qcilink.metrics import GMI_MIN_SAMPLES

    out = []
    for i, spec in enumerate(WORKLOADS[name].specs):
        cfg = harness.SimConfig(**spec, seed=seed, workers=workers,
                                output=os.path.join(out_dir, f"{name}_{i}.csv"))
        if smoke:
            small = {"gmi": GMI_MIN_SAMPLES, "coded_ber": harness.CODED_BLOCK_FRAMES,
                     "uncoded_ber": 200_000, "scatter": 1_000}
            cfg = replace(cfg, samples=small.get(cfg.mode, cfg.samples))
        out.append(cfg)
    return out


def kept_work(harness, cfg, records) -> tuple:
    """(channel symbols, LDPC frames) a run kept in its output.

    GMI points keep their samples, BER points the symbols behind their bit
    count, coded points their frames times n/m symbols; a complexity run
    keeps its symbols once per demapper kind and a scatter run its dump.
    """
    m = int(round(math.log2(cfg.M)))
    if cfg.mode == "gmi" or cfg.mode == "complexity":
        return sum(r.trials for r in records), 0
    if cfg.mode == "uncoded_ber":
        return sum(r.trials // m for r in records), 0
    if cfg.mode == "coded_ber":
        frames = sum(r.trials for r in records if r.metric == "fer")
        return frames * (harness.load_code(cfg).n // m), frames
    return harness.resolved_samples(cfg), 0  # scatter


def _complexity_kinds(family: str) -> list:
    """The demapper kinds a ``complexity`` run evaluates for a family."""
    kinds = ["exact2d", "maxlog2d"]
    if family == "qam":
        kinds.append("qam_decomposed")
    return kinds + ["qci_lcd", "qci_remapped_2d"]


def demapper_pairs() -> list:
    """Every (demapper kind, M) that some workload runs, sorted."""
    pairs = set()
    for w in WORKLOADS.values():
        for spec in w.specs:
            if spec["mode"] == "complexity":
                pairs.update((k, spec["M"]) for k in _complexity_kinds(spec["family"]))
            elif spec["mode"] != "scatter":
                pairs.add((spec["demapper"], spec["M"]))
    return sorted(pairs)
