"""Output checks; each one is attempted once and either passes or fails.

The failures over the attempts give the benchmark's ``failed`` count. A
check that cannot be evaluated (a GMI point with no stored reference, a
coded sweep with no QAM point in the criterion-10 BER window) fails.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from tracing import expected_evals_per_sym

REFERENCE_PATH = Path(__file__).with_name("reference_gmi.json")
GMI_REF_SIGMAS = 4.0       # GMI point vs. stored reference
EXACT_VS_REMAP_SIGMAS = 3.0
CODED_QAM_WINDOW = (1e-3, 1e-2)


def gmi_key(rec) -> str:
    return f"{rec.constellation}/{rec.demapper}/{rec.psnr_db:.2f}"


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["points"]


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def records(self, cfgs, runs, reference) -> None:
        """Checks on one cycle's records; ``runs`` holds one record list per config."""
        gmi = [(cfg.M, r) for cfg, recs in zip(cfgs, runs) for r in recs if r.metric == "gmi"]
        for M, rec in gmi:
            m = math.log2(M)
            self.check(0.0 <= rec.value <= m, f"{gmi_key(rec)}: GMI {rec.value} outside [0, {m}]")
            ref = reference.get(gmi_key(rec))
            if ref is None:
                self.check(False, f"{gmi_key(rec)}: no reference GMI stored")
                continue
            tol = GMI_REF_SIGMAS * math.hypot(rec.stderr, ref[1])
            self.check(abs(rec.value - ref[0]) <= tol,
                       f"{gmi_key(rec)}: GMI {rec.value:.5f} vs reference {ref[0]:.5f} (tol {tol:.5f})")
        self._exact_vs_remapped([r for _, r in gmi])
        for cfg, recs in zip(cfgs, runs):
            if cfg.mode == "complexity":
                for rec in recs:
                    law = expected_evals_per_sym(rec.demapper, cfg.M)
                    self.check(rec.value == law,
                               f"complexity {rec.demapper} M={cfg.M}: {rec.value} evals/sym, expected {law}")
        coded = {cfg.family: recs for cfg, recs in zip(cfgs, runs) if cfg.mode == "coded_ber"}
        if coded:
            self._coded_ordering(coded)

    def _exact_vs_remapped(self, gmi) -> None:
        remap = {(r.constellation, r.psnr_db): r for r in gmi if r.demapper == "qci_remapped_2d"}
        for e in gmi:
            r = remap.get((e.constellation, e.psnr_db))
            if e.demapper == "exact2d" and r is not None:
                tol = EXACT_VS_REMAP_SIGMAS * math.hypot(e.stderr, r.stderr)
                self.check(e.value >= r.value - tol,
                           f"{e.constellation} {e.psnr_db} dB: exact2d GMI {e.value:.5f} "
                           f"below qci_remapped_2d {r.value:.5f} - {tol:.5f}")

    def _coded_ordering(self, coded) -> None:
        """Criterion 10: qci BER < qam BER wherever qam BER lies in [1e-3, 1e-2]."""
        ber = {fam: {r.psnr_db: r.value for r in recs if r.metric == "ber"} for fam, recs in coded.items()}
        lo, hi = CODED_QAM_WINDOW
        window = [p for p, v in ber["qam"].items() if lo <= v <= hi]
        self.check(bool(window), f"coded: no qam point with BER in [{lo}, {hi}]: {ber['qam']}")
        for p in window:
            self.check(ber["qci"][p] < ber["qam"][p],
                       f"coded {p} dB: qci BER {ber['qci'][p]} not below qam {ber['qam'][p]}")

    def counters(self, tracer) -> None:
        """Every demapped block's distance-eval counter follows its kind's law."""
        for span in tracer.spans:
            if span.name == "demapper.demap":
                a = span.attrs
                law = expected_evals_per_sym(a["kind"], a["M"])
                self.check(a["distance_evals"] == law * a["n"],
                           f"{a['kind']} M={a['M']}: {a['distance_evals']} evals for {a['n']} symbols")

    def same(self, a, b, what: str) -> None:
        self.check(a == b, f"{what}: outputs differ")
