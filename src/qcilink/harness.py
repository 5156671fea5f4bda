"""Configuration-driven experiment runner.

Every mode decomposes its Monte Carlo work into fixed-size blocks; block b
of grid point p draws from an independent generator seeded by
(master seed, stream tag, p, b), and results merge in block order. Output
is therefore bit-identical for a given (config, seed) no matter how many
worker processes share the blocks. Early stopping in the BER modes scans
the merged block sequence, so extra blocks computed by idle workers are
discarded rather than folded in.
"""

from __future__ import annotations

import ctypes
import errno
import functools
import math
import multiprocessing
import os
from collections.abc import Callable
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .channel import spec_from_psnr, transmit
from .coding import ParityCheckCode, bundled_code, decode_bp, deinterleave, encode, info_bits_of, interleave, load_alist
from .constellation import SUPPORTED_QAM_SIZES, load_constellation, power_stats
from .demapper import (DEMAPPER_KINDS, DEMAPPERS, FAMILIES, custom_context, demap, estimate_affine_compensation,
                       qam_context, qci_context)
from .errors import ConfigError
from .metrics import GMI_MIN_SAMPLES, MeanAccumulator, SweepRecord, counted_record, gmi_symbol_scores, scatter_dump

MODES = ("uncoded_ber", "coded_ber", "gmi", "scatter", "complexity")

GMI_BLOCK_SYMBOLS = 125_000
UNCODED_BLOCK_SYMBOLS = 25_000
CODED_BLOCK_FRAMES = 25
COMPLEXITY_SYMBOLS = 256

# stream tags keep the per-purpose generators independent
_TAG_GMI, _TAG_COMP, _TAG_UNCODED, _TAG_CODED, _TAG_SCATTER = range(5)

_DEFAULT_SAMPLES = {
    "gmi": 1_000_000,       # symbols per grid point
    "uncoded_ber": 10_000_000,  # bit budget per grid point
    "coded_ber": 10_000,    # frame budget per grid point
    "scatter": 20_000,      # symbols dumped
    "complexity": COMPLEXITY_SYMBOLS,
}
_DEFAULT_TARGET_ERRORS = {"uncoded_ber": 100, "coded_ber": 50}


@dataclass
class SimConfig:
    family: str = "qci"
    M: int = 16
    constellation_file: str | None = None
    demapper: str = "qci_lcd"
    mode: str = "gmi"
    psnr_start: float = 8.0
    psnr_stop: float = 16.0
    psnr_step: float = 0.25
    samples: int = 0          # 0 -> per-mode default
    target_errors: int = 0    # 0 -> per-mode default (BER modes only)
    comp_samples: int = 100_000
    code_file: str | None = None
    max_iters: int = 50
    seed: int = 1
    workers: int = 0          # 0 -> CPUs this process may run on
    output: str = "sweep.csv"


_FIELD_TYPES = {f.name: f.type for f in fields(SimConfig)}


def parse_config(path=None, overrides: dict | None = None) -> SimConfig:
    """Build a config from an optional key=value file plus flag overrides.

    Unknown keys are hard errors; flags win over file values.
    """
    values: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        for lineno, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    kwargs = {}
    for key, val in values.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        kwargs[key] = _coerce(key, val)
    cfg = SimConfig(**kwargs)
    validate_config(cfg)
    return cfg


def _coerce(key: str, val):
    if val is None or not isinstance(val, str):
        return val
    ftype = _FIELD_TYPES[key]
    try:
        if "int" in str(ftype):
            return int(val)
        if "float" in str(ftype):
            return float(val)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {val!r}") from exc
    return val


def validate_config(cfg: SimConfig) -> None:
    if cfg.mode not in MODES:
        raise ConfigError(f"unknown mode {cfg.mode!r}; choose from {MODES}")
    if cfg.family not in FAMILIES:
        raise ConfigError(f"unknown constellation family {cfg.family!r}; choose from {FAMILIES}")
    if cfg.demapper not in DEMAPPER_KINDS:
        raise ConfigError(f"unknown demapper {cfg.demapper!r}; choose from {DEMAPPER_KINDS}")
    if cfg.family == "file" and not cfg.constellation_file:
        raise ConfigError("family 'file' requires constellation_file")
    if cfg.family != "file" and cfg.M not in SUPPORTED_QAM_SIZES:
        raise ConfigError(f"unsupported M={cfg.M} for family {cfg.family!r}; "
                          f"choose from {SUPPORTED_QAM_SIZES}")
    spec = DEMAPPERS[cfg.demapper]
    if cfg.family not in spec.families:
        what = " (compensation of the inverse radial map)" if spec.needs_comp else ""
        raise ConfigError(f"demapper {cfg.demapper!r}{what} supports only the families "
                          f"{spec.families}, not {cfg.family!r}")
    if spec.needs_comp and cfg.mode in ("uncoded_ber", "coded_ber"):
        raise ConfigError(f"demapper {cfg.demapper!r} needs a compensation estimate, "
                          "which only gmi mode makes")
    if cfg.psnr_step <= 0.0:
        raise ConfigError("psnr_step must be positive")
    if cfg.psnr_start > cfg.psnr_stop:
        raise ConfigError("psnr_start must not exceed psnr_stop")
    if cfg.samples < 0 or cfg.target_errors < 0:
        raise ConfigError("samples and target_errors must be nonnegative")
    if cfg.mode == "gmi" and resolved_samples(cfg) < GMI_MIN_SAMPLES:
        raise ConfigError(f"gmi mode needs samples >= {GMI_MIN_SAMPLES}")
    if cfg.comp_samples < 10_000:
        raise ConfigError("comp_samples must be >= 10000")
    if cfg.max_iters < 1:
        raise ConfigError("max_iters must be >= 1")
    if cfg.seed < 0 or cfg.workers < 0:
        raise ConfigError("seed and workers must be nonnegative")


def resolved_samples(cfg: SimConfig) -> int:
    return cfg.samples if cfg.samples > 0 else _DEFAULT_SAMPLES[cfg.mode]


def resolved_target_errors(cfg: SimConfig) -> int:
    if cfg.target_errors > 0:
        return cfg.target_errors
    return _DEFAULT_TARGET_ERRORS.get(cfg.mode, 0)


def psnr_grid(cfg: SimConfig) -> list:
    n = int(math.floor((cfg.psnr_stop - cfg.psnr_start) / cfg.psnr_step + 1e-9))
    return [cfg.psnr_start + i * cfg.psnr_step for i in range(n + 1)]


def derived_rng(seed: int, tag: int, point: int, block: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, point, block])


def build_context(cfg: SimConfig):
    if cfg.family == "qam":
        return qam_context(cfg.M)
    if cfg.family == "qci":
        return qci_context(cfg.M)
    return custom_context(load_constellation(cfg.constellation_file))


def load_code(cfg: SimConfig) -> ParityCheckCode:
    if cfg.code_file:
        return load_alist(cfg.code_file)
    return bundled_code()


# ---------------------------------------------------------------------------
# block tasks (run in worker processes; state installed by _init_worker)

_WORKER: dict = {}


def _init_worker(cfg: SimConfig) -> None:
    _WORKER["cfg"] = cfg
    _WORKER["ctx"] = build_context(cfg)
    _WORKER["code"] = load_code(cfg) if cfg.mode == "coded_ber" else None


def _gmi_task(args):
    point, block, n0, num, comp = args
    cfg, ctx = _WORKER["cfg"], _WORKER["ctx"]
    rng = derived_rng(cfg.seed, _TAG_GMI, point, block)
    scores = gmi_symbol_scores(ctx, cfg.demapper, n0, num, rng, comp=comp)
    return scores.size, float(np.sum(scores)), float(np.sum(scores ** 2))


def _uncoded_task(args):
    point, block, n0, num = args
    cfg, ctx = _WORKER["cfg"], _WORKER["ctx"]
    rng = derived_rng(cfg.seed, _TAG_UNCODED, point, block)
    idx, y = ctx.draw(num, n0, rng)
    frame = demap(cfg.demapper, y, ctx, n0)
    errors = int(np.sum(frame.hard_bits() != ctx.constellation.labels[idx]))
    return num * ctx.m, errors


def _coded_task(args):
    point, block, n0, frames = args
    cfg, ctx, code = _WORKER["cfg"], _WORKER["ctx"], _WORKER["code"]
    rng = derived_rng(cfg.seed, _TAG_CODED, point, block)
    lookup = ctx.constellation.index_by_code()
    weights = 1 << np.arange(ctx.m - 1, -1, -1, dtype=np.int64)

    info = rng.integers(0, 2, size=(frames, code.k), dtype=np.uint8)
    coded = encode(code, info)
    tx_bits = interleave(coded, cfg.seed)
    codes = tx_bits.reshape(frames, -1, ctx.m).astype(np.int64) @ weights
    idx = lookup[codes]
    y = transmit(ctx.constellation.points[idx.reshape(-1)], n0, rng)
    frame = demap(cfg.demapper, y, ctx, n0)
    llrs = deinterleave(frame.values.reshape(frames, -1), cfg.seed)
    bits, _, _ = decode_bp(code, llrs, max_iters=cfg.max_iters)
    info_hat = info_bits_of(code, bits)
    bit_errors = int(np.sum(info_hat != info))
    frame_errors = int(np.sum(np.any(info_hat != info, axis=1)))
    return frames, frame_errors, frames * code.k, bit_errors


# (get, set) thread-count entry points of the OpenBLAS builds numpy ships with:
# the scipy-openblas wheels, a 64-bit-integer build, a plain build
_OPENBLAS_API = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class _OpenBlas(NamedTuple):
    get: Callable[[], int]
    set: Callable[[int], None]
    initial: int  # thread count at first use


@functools.cache
def _openblas() -> _OpenBlas | None:
    """Thread-count control of the loaded OpenBLAS, or None if none is loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = [line.split()[-1] for line in fh if "openblas" in line.lower()]
    except OSError:
        return None
    for path in dict.fromkeys(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_API:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return _OpenBlas(get, set_, get())
    return None


def _usable_cpus() -> int:
    """CPUs this process may run on, which an affinity mask or cpuset can limit."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _share_cores_with_blas(workers: int, cores: int) -> None:
    """Split the cores between the process pool and OpenBLAS.

    Forked workers inherit the parent's OpenBLAS thread count, and an
    idle OpenBLAS helper thread keeps spinning on a core, so before a pool
    of ``workers`` starts the count becomes ``cores // workers`` (at least
    one) and workers x threads stays within the cores. An inline run gets
    back the count found at first use. The count is left as set when the
    pool closes, because the next pooled run wants the same count, and is
    changed only when it differs.
    """
    blas = _openblas()
    if blas is None:
        return
    want = max(1, cores // workers) if workers > 1 else blas.initial
    if blas.get() != want:
        blas.set(want)


class _Executor:
    """Runs block tasks inline or on a process pool; results stay ordered."""

    def __init__(self, cfg: SimConfig):
        cores = _usable_cpus()
        workers = cfg.workers if cfg.workers > 0 else cores
        self.workers = workers
        self.pool = None
        _share_cores_with_blas(workers, cores)
        if workers > 1:
            self.pool = multiprocessing.get_context("fork").Pool(
                workers, initializer=_init_worker, initargs=(cfg,)
            )
        else:
            _init_worker(cfg)

    def map(self, fn, tasks):
        tasks = list(tasks)
        if self.pool is None:
            return [fn(t) for t in tasks]
        return self.pool.map(fn, tasks, chunksize=1)

    def close(self):
        if self.pool is not None:
            self.pool.close()
            self.pool.join()


def _split_blocks(total: int, block: int) -> list:
    sizes = [block] * (total // block)
    if total % block:
        sizes.append(total % block)
    return sizes


def _stop_scan(results, target_errors: int, error_pos: int, errors_so_far: int):
    """Prefix of block results up to the first block meeting the error target.

    Scanning is sequential in block order, so the kept prefix (and with it
    the output) does not depend on how many blocks a wave computed.
    """
    kept = []
    errors = errors_so_far
    for res in results:
        kept.append(res)
        errors += res[error_pos]
        if target_errors and errors >= target_errors:
            return kept, errors, True
    return kept, errors, False


def _check_output(path) -> None:
    """Raise an OSError now, before any Monte Carlo work, if ``path`` cannot be written."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, "no such output directory", parent)
    if os.path.isdir(path) or not os.access(parent, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, "output is not writable", path)


def run(cfg: SimConfig) -> list:
    """Execute the configured experiment; returns records and writes the CSV."""
    validate_config(cfg)
    _check_output(cfg.output)
    ctx = build_context(cfg)
    stats = power_stats(ctx.constellation)
    grid = psnr_grid(cfg)
    records: list[SweepRecord] = []

    if cfg.mode == "scatter":
        n0 = spec_from_psnr(grid[0], stats).n0
        rng = derived_rng(cfg.seed, _TAG_SCATTER, 0, 0)
        scatter_dump(ctx, n0, resolved_samples(cfg), rng, file=cfg.output)
        return records

    if cfg.mode == "complexity":
        n0 = spec_from_psnr(grid[0], stats).n0
        _, y = ctx.draw(COMPLEXITY_SYMBOLS, n0, derived_rng(cfg.seed, _TAG_UNCODED, 0, 0))
        # every kind that runs on this family without a compensation estimate
        kinds = [k for k, spec in DEMAPPERS.items() if ctx.family in spec.families and not spec.needs_comp]
        for kind in kinds:
            frame = demap(kind, y, ctx, n0)
            per_symbol = frame.distance_evals / frame.num_symbols
            records.append(
                SweepRecord(grid[0], "evals_per_symbol", per_symbol, 0.0,
                            COMPLEXITY_SYMBOLS, 0, ctx.name, kind, cfg.seed)
            )
        write_records_csv(records, cfg.output)
        return records

    execu = _Executor(cfg)
    try:
        if cfg.mode == "gmi":
            records = _run_gmi(cfg, ctx, stats, grid, execu)
        elif cfg.mode == "uncoded_ber":
            records = _run_uncoded(cfg, ctx, stats, grid, execu)
        else:
            records = _run_coded(cfg, ctx, stats, grid, execu)
    finally:
        execu.close()
    write_records_csv(records, cfg.output)
    return records


def _run_gmi(cfg, ctx, stats, grid, execu) -> list:
    records = []
    samples = resolved_samples(cfg)
    for p, psnr in enumerate(grid):
        n0 = spec_from_psnr(psnr, stats).n0
        comp = None
        if DEMAPPERS[cfg.demapper].needs_comp:
            comp = estimate_affine_compensation(
                ctx, n0, cfg.comp_samples, derived_rng(cfg.seed, _TAG_COMP, p, 0)
            )
        sizes = _split_blocks(samples, GMI_BLOCK_SYMBOLS)
        tasks = [(p, b, n0, num, comp) for b, num in enumerate(sizes)]
        acc = sum((MeanAccumulator(*r) for r in execu.map(_gmi_task, tasks)), MeanAccumulator())
        records.append(
            SweepRecord(psnr, "gmi", acc.mean, acc.stderr, acc.n, 0,
                        ctx.name, cfg.demapper, cfg.seed)
        )
    return records


def _run_counted(grid, stats, execu, task_fn, block_unit, budget, target):
    """Shared wave-scheduled loop for the two BER modes.

    Yields each grid point's PSNR with the column sums of its kept block results.
    """
    wave = max(1, execu.workers)
    for p, psnr in enumerate(grid):
        n0 = spec_from_psnr(psnr, stats).n0
        sizes = _split_blocks(budget, block_unit)
        kept = []
        errors = 0
        hit = False
        b = 0
        while b < len(sizes) and not hit:
            chunk = sizes[b:b + wave]
            tasks = [(p, b + i, n0, num) for i, num in enumerate(chunk)]
            results = execu.map(task_fn, tasks)
            scanned, errors, hit = _stop_scan(results, target, 1, errors)
            kept.extend(scanned)
            b += len(chunk)
        yield psnr, [sum(col) for col in zip(*kept)]


def _run_uncoded(cfg, ctx, stats, grid, execu) -> list:
    budget_syms = max(1, math.ceil(resolved_samples(cfg) / ctx.m))
    points = _run_counted(grid, stats, execu, _uncoded_task, UNCODED_BLOCK_SYMBOLS,
                          budget_syms, resolved_target_errors(cfg))
    return [counted_record(psnr, "ber", errors, bits, ctx.name, cfg.demapper, cfg.seed)
            for psnr, (bits, errors) in points]


def _run_coded(cfg, ctx, stats, grid, execu) -> list:
    code = load_code(cfg)
    if code.n % ctx.m:
        raise ConfigError(
            f"code length {code.n} is not a multiple of {ctx.m} bits/symbol"
        )
    points = _run_counted(grid, stats, execu, _coded_task, CODED_BLOCK_FRAMES,
                          resolved_samples(cfg), resolved_target_errors(cfg))
    records = []
    for psnr, (frames, frame_errors, bits, bit_errors) in points:
        records += [counted_record(psnr, "ber", bit_errors, bits, ctx.name, cfg.demapper, cfg.seed),
                    counted_record(psnr, "fer", frame_errors, frames, ctx.name, cfg.demapper, cfg.seed)]
    return records


def write_records_csv(records, path) -> None:
    """Write sweep records in the shared CSV schema."""
    lines = ["psnr_db,metric,value,stderr,trials,constellation,demapper,seed"]
    for r in records:
        lines.append(
            f"{r.psnr_db:.10g},{r.metric},{r.value:.10g},{r.stderr:.10g},"
            f"{r.trials},{r.constellation},{r.demapper},{r.seed}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
