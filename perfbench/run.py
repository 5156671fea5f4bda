"""qcilink benchmark: closed-loop Monte Carlo workloads through ``harness.run()``.

    python3 perfbench/run.py --workload gmi_lcd --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload untraced with the default pool size and
prints the end-to-end metrics. ``--trace 1`` runs the workload once
untraced with the pool (counting block tasks), once untraced with
``workers=1`` and once traced with ``workers=1``, and prints the per-layer
metrics. Every metric is printed as ``metric <name> <value> <unit>``; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Outputs are
checked (see checks.py); results and spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import checks
import machine
import ready
import tracing
import workloads

SETUP_PROBES = 5
# Largest share of the traced wall that self times may leave unexplained.
TRACE_GAP_BOUND = 0.02
OUT_DIR = Path(__file__).resolve().parent / "out"
COMPLEXITY_NOTE = ("M=1024 is left out: exact2d there costs about 23 s per 1e6 symbols, "
                   "more than a run's budget")

END_TO_END = (
    ("setup_s", "s"),
    ("sym_per_s", "1/s"),
    ("cpu_us_per_sym", "us"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for kind, M in workloads.demapper_pairs():
        p = f"demapper.{kind}.M{M}"
        units.update({f"{p}.s": "s", f"{p}.ns_per_sym": "ns", f"{p}.ns_per_distance_eval": "ns",
                      f"{p}.distance_evals_per_sym": "count"})
    units.update({
        "demapper.llr_pam.s": "s",
        "demapper.estimate_affine_compensation.s": "s",
        "demapper.map_evals_per_sym": "count",
        "demapper.d2_bytes_computed": "bytes",
        "geometry.radial_inverse.s": "s",
        "geometry.radial_inverse.ns_per_point": "ns",
        "metrics.gmi_symbol_scores.self_s": "s",
        "metrics.gmi_symbol_scores.ns_per_sym": "ns",
        "coding.encode.s": "s",
        "coding.encode.ns_per_bit": "ns",
        "coding.decode_bp.s": "s",
        "coding.decode_bp.us_per_frame_iter": "us",
        "coding.decode_bp.iters_per_frame": "count",
        "coding.decode_bp.converged_fraction": "fraction",
        "coding.interleave.s": "s",
        "coding.info_bits_of.s": "s",
        "harness.run.self_s": "s",
        "harness.block.self_s": "s",
        "harness.blocks_computed": "count",
        "harness.block_yield": "fraction",
        "harness.build_context_s": "s",
        "harness.load_code_s": "s",
        "harness.parallel_efficiency": "fraction",
        "trace.overhead_frac": "fraction",
    })
    return units


def _cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _run_all(harness, cfgs) -> tuple:
    """One pass over the workload: (records per run, CSV bytes per run, wall s)."""
    t0 = time.perf_counter()
    runs = [harness.run(cfg) for cfg in cfgs]
    wall = time.perf_counter() - t0
    return runs, [Path(cfg.output).read_bytes() for cfg in cfgs], wall


def measure_setup(name: str) -> float:
    """Median wall time of SETUP_PROBES fresh interpreters setting the workload up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: Popen.wait with one polls in steps of up to 50 ms
        subprocess.run([sys.executable, str(Path(__file__).with_name("ready.py")), name],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _trimmed_mean(values) -> float:
    """Mean without the lowest and the highest value, once there are more than three.

    A pool run's time is bimodal when its BLAS threads and the workers
    collide on the cores; a mean over the middle values is steadier than
    a median that jumps between the two modes.
    """
    v = sorted(values)
    return statistics.fmean(v[1:-1] if len(v) > 3 else v)


def measure(harness, cfgs, seconds, checker, reference) -> tuple:
    """Closed loop over the workload for ``seconds`` (at least one cycle).

    A further cycle starts only if a cycle of median length still fits.
    Each run() call is timed on its own; a cycle's cost is the sum over
    runs of each run's trimmed mean over cycles, so a slowdown of the host
    that hits one run of one cycle does not move the result.
    """
    cycles = []  # per cycle: [(wall s, cpu s)] per run
    first = None
    t_end = time.perf_counter() + seconds
    while not cycles or (time.perf_counter()
                         + statistics.median(sum(w for w, _ in c) for c in cycles) <= t_end):
        costs, runs = [], []
        for cfg in cfgs:
            c0, t0 = _cpu_seconds(), time.perf_counter()
            runs.append(harness.run(cfg))
            costs.append((time.perf_counter() - t0, _cpu_seconds() - c0))
        cycles.append(costs)
        csvs = [Path(cfg.output).read_bytes() for cfg in cfgs]
        if first is None:
            first = (runs, csvs)
            checker.records(cfgs, runs, reference)
        else:
            checker.same((runs, csvs), first, f"cycle {len(cycles) - 1} vs cycle 0")
    sym = frames = 0
    for cfg, recs in zip(cfgs, first[0]):
        s, f = workloads.kept_work(harness, cfg, recs)
        sym, frames = sym + s, frames + f
    wall = sum(_trimmed_mean([c[i][0] for c in cycles]) for i in range(len(cfgs)))
    cpu = sum(_trimmed_mean([c[i][1] for c in cycles]) for i in range(len(cfgs)))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workers = cfgs[0].workers
    metrics = {
        "sym_per_s": sym / wall,
        "cpu_us_per_sym": cpu * 1e6 / sym,
        # ru_maxrss is per process: the parent plus each worker at the
        # largest child's peak bounds the combined peak from above
        "peak_rss_mb": (self_kb + workers * child_kb) / 1024.0,
    }
    extra = {}
    if frames:
        extra["frames_per_s"] = (frames / wall, "1/s")
        extra["cpu_ms_per_frame"] = (cpu * 1e3 / frames, "ms")
    return metrics, extra, {"symbols": sym, "frames": frames, "cycles": cycles}


def trace(harness, demapper, metrics_mod, cfgs, checker, reference, spans_path) -> tuple:
    """Pool pass (block count), then untraced and traced workers=1 runs.

    Each config runs untraced and traced back to back, the order
    alternating from config to config, so that drift in machine speed and
    first-touch costs fall on both sides of ``trace.overhead_frac``.
    """
    workers = cfgs[0].workers
    with tracing.BlockCounter(harness) as blocks:
        runs_w, csvs_w, wall_w = _run_all(harness, cfgs)
    one = [replace(cfg, workers=1) for cfg in cfgs]
    tracer = tracing.Tracer()
    runs, csvs, wall = {False: [], True: []}, {False: [], True: []}, {False: 0.0, True: 0.0}
    for i, cfg in enumerate(one):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracing.install_layer_spans(tracer, harness, demapper, metrics_mod)
                tracer.run = i
            try:
                r, c, w = _run_all(harness, [cfg])
            finally:
                tracer.patches.restore()
            runs[traced] += r
            csvs[traced] += c
            wall[traced] += w
    tracer.dump(spans_path)

    checker.records(one, runs[False], reference)
    checker.same((runs[True], csvs[True]), (runs[False], csvs[False]), "traced vs untraced workers=1")
    checker.same((runs_w, csvs_w), (runs[False], csvs[False]), f"workers={workers} vs workers=1")
    checker.counters(tracer)
    gap = (wall[True] - sum(tracer.self_times())) / wall[True]
    checker.check(0.0 <= gap <= TRACE_GAP_BOUND,
                  f"traced self times leave {gap:.2%} of the traced wall unexplained")

    kept_blocks = sum(1 for s in tracer.spans if s.name == "harness.block")
    out = tracing.layer_metrics(tracer, workloads.demapper_pairs())
    out["harness.blocks_computed"] = float(blocks.count)
    # workers=1 computes no block that early stopping discards
    out["harness.block_yield"] = kept_blocks / blocks.count if blocks.count else 1.0
    out["harness.parallel_efficiency"] = wall[False] / (workers * wall_w)
    out["trace.overhead_frac"] = (wall[True] - wall[False]) / wall[False]
    details = {"wall_pool_s": wall_w, "wall_w1_s": wall[False], "wall_traced_s": wall[True],
               "self_time_gap_frac": gap, "complexity": tracing.complexity_table(tracer),
               "complexity_note": COMPLEXITY_NOTE}
    return out, {}, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="minimum run sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    try:
        harness, demapper, metrics_mod = ready.import_qcilink()
    except ready.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT_DIR / f"{tag}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = None if args.trace else measure_setup(args.workload)
        workers = workloads.pool_workers()
        cfgs = workloads.configs(harness, args.workload, args.seed, workers, str(run_dir), args.smoke)
        ready.make_ready(harness, cfgs)  # before any pool forks, as a user's process would be
        checker = checks.Checker()
        reference = checks.load_reference()
        facts = machine.facts()
        if args.trace:
            values, extra, details = trace(harness, demapper, metrics_mod, cfgs, checker, reference,
                                           OUT_DIR / f"{tag}.spans.jsonl")
            units = per_layer_units()
        else:
            values, extra, details = measure(harness, cfgs, args.seconds, checker, reference)
            values["setup_s"] = setup_s
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    facts["loadavg_before"] = load_before
    facts["loadavg_after"] = os.getloadavg()

    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    failed_fraction = checker.failed / checker.attempted
    print(f"perfbench {tag} workers={workers}")
    print("machine " + json.dumps(facts))
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in extra.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"metric failed_fraction {failed_fraction:.6g} fraction")
    for what in checker.failures:
        print(f"FAILED {what}")
    if "complexity" in details:
        print("complexity kind M distance_evals_per_sym ns_per_distance_eval ns_per_sym")
        for row in details["complexity"]:
            print(f"complexity {row['kind']} {row['M']} {row['distance_evals_per_sym']:g} "
                  f"{row['ns_per_distance_eval']:.4g} {row['ns_per_sym']:.4g}")
        print(f"complexity note: {COMPLEXITY_NOTE}")
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    with open(OUT_DIR / f"{tag}.json", "w") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed, "workers": workers,
                   "machine": facts, "extra": extra, "failures": checker.failures,
                   **details}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
