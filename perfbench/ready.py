"""Set-up of a workload: import qcilink from the checkout and make it ready.

Ready means qcilink imported, every run's demapping context built and,
for coded runs, the bundled LDPC code loaded with its encoder derived.
Run as a script it sets up one workload in a fresh interpreter, which is
what ``setup_s`` times:

    python3 perfbench/ready.py <workload>
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSource(RuntimeError):
    pass


def import_qcilink():
    """The qcilink modules of this checkout (never an installed copy)."""
    if not (SRC / "qcilink" / "harness.py").is_file():
        raise MissingSource(f"no qcilink source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from qcilink import demapper, harness, metrics

    if Path(harness.__file__).resolve().parent != SRC / "qcilink":
        raise MissingSource(f"qcilink imported from {harness.__file__}, not from {SRC}")
    return harness, demapper, metrics


def make_ready(harness, cfgs) -> None:
    import numpy as np

    from qcilink.coding import encode

    for cfg in cfgs:
        harness.build_context(cfg)
        if cfg.mode == "coded_ber":
            code = harness.load_code(cfg)
            encode(code, np.zeros((1, code.k), dtype=np.uint8))


if __name__ == "__main__":
    import workloads

    h, _, _ = import_qcilink()
    make_ready(h, workloads.configs(h, sys.argv[1], seed=0, workers=1, out_dir="."))
