"""Regenerate reference_gmi.json, the GMI curve the benchmark checks against.

    python3 perfbench/make_reference.py

Runs every GMI point of the benchmark's workloads with REFERENCE_SAMPLES
symbols at a fixed seed and stores value and standard error per point.
Rerun it only when a change is meant to move the GMI curves, and say so
where the change is described.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import checks
import ready
import workloads

REFERENCE_SAMPLES = 4_000_000
REFERENCE_SEED = 900_001


def main() -> None:
    harness, _, _ = ready.import_qcilink()
    points = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for name in workloads.WORKLOADS:
            cfgs = workloads.configs(harness, name, REFERENCE_SEED, workloads.pool_workers(), tmp)
            for cfg in cfgs:
                if cfg.mode != "gmi":
                    continue
                for rec in harness.run(replace(cfg, samples=REFERENCE_SAMPLES)):
                    points[checks.gmi_key(rec)] = [rec.value, rec.stderr]
                    print(checks.gmi_key(rec), rec.value, rec.stderr, flush=True)
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump({"samples": REFERENCE_SAMPLES, "seed": REFERENCE_SEED,
                   "points": dict(sorted(points.items()))}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
