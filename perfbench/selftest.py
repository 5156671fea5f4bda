"""The benchmark's own tests; not part of the repository's test suite.

    python3 -m pytest -q perfbench/selftest.py

Smoke runs use the harness minimum sizes (GMI_MIN_SAMPLES symbols per GMI
point, one coded block per point), so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def smoke(request):
    out = {}
    for trace in ("0", "1"):
        p = _bench("--workload", request.param, "--seed", "7", "--seconds", "0.1",
                   "--trace", trace, "--smoke")
        assert p.returncode == 0, p.stderr
        out[trace] = p.stdout.splitlines()
    return request.param, out


def test_smoke_prints_every_metric_with_unit(smoke):
    name, out = smoke
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        lines = out[trace]
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        printed = {ln.split()[1]: ln.split()[3] for ln in lines if ln.startswith("metric ")}
        assert {k: printed[k] for k in expected} == expected
        assert printed["failed_fraction"] == "fraction"
    if name == "coded":
        assert {"frames_per_s", "cpu_ms_per_frame"} <= {ln.split()[1] for ln in out["0"]
                                                         if ln.startswith("metric ")}


def test_smoke_traced_self_times_cover_wall(smoke):
    name, _ = smoke
    result = json.loads((run.OUT_DIR / f"{name}-seed7-trace1.json").read_text())
    gap = result["self_time_gap_frac"]
    assert 0.0 <= gap <= run.TRACE_GAP_BOUND
    for row in result["complexity"]:
        assert row["distance_evals_per_sym"] == row["expected_evals_per_sym"]


def test_names_use_allowed_characters():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for n in names:
        assert NAME.match(n), n
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


def test_self_time_is_duration_minus_children():
    mod = types.SimpleNamespace()
    mod.leaf = lambda: time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        mod.leaf()
        mod.leaf()

    mod.outer = outer
    tracer = tracing.Tracer()
    tracer.wrap(mod, "leaf", "leaf")
    tracer.wrap(mod, "outer", "outer")
    t0 = time.perf_counter()
    mod.outer()
    wall = time.perf_counter() - t0
    tracer.patches.restore()
    assert mod.outer is outer
    selfs = dict(zip((s.name + str(s.id) for s in tracer.spans), tracer.self_times()))
    assert [s.name for s in tracer.spans] == ["outer", "leaf", "leaf"]
    assert tracer.spans[1].parent == tracer.spans[2].parent == 0
    assert selfs["outer0"] == pytest.approx(0.01, abs=0.008)
    assert sum(selfs.values()) == pytest.approx(tracer.spans[0].seconds)
    assert 0.0 <= (wall - sum(selfs.values())) / wall <= run.TRACE_GAP_BOUND


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for f in HERE.glob("*"):
        if f.is_file():
            shutil.copy(f, tmp_path / "perfbench")
    p = _bench("--workload", "gmi_lcd", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert not p.stdout.strip()
