"""Configuration-driven experiment runner.

Every mode decomposes its Monte Carlo work into fixed-size blocks; block b
of grid point p draws from an independent generator seeded by
(master seed, stream tag, p, b), and results merge in block order. Blocks
go to the workers in rounds that span the whole PSNR grid, so blocks of
different points fill the pool. Early stopping in the BER modes scans each
point's blocks in block order, so a block computed past the one that met
the error target is discarded rather than folded in. Output is therefore
bit-identical for a given (config, seed) no matter how many workers share
the blocks.

The mode picks the workers. A gmi or uncoded_ber block spends its time in
numpy calls of 10-100 us that release the GIL (ufuncs, BLAS, generator
draws, ``take``), and a whole run lasts only tens of ms, so its blocks run
on a thread pool of the calling process, each thread pinned to its own
share of the caller's CPUs. A fresh fork pool would cost such a run about
9 ms to start, 6 ms of first-touch page faults per worker and 3 ms to shut
down; and on a host whose scheduler keeps new threads on their creator's
CPU, two unpinned threads gained 0.8-1.1x where two pinned ones gained
1.3-2.3x. coded_ber keeps a pool of forked processes: the BP decoder makes
about 50 short numpy calls per iteration, which contend for the GIL, and
on 25-frame batches it ran 1.33x on 2 pinned threads against 1.66x on 2
processes.

A run builds its demap context, loads its LDPC code and derives its
interleaver permutation once; pool threads share them and forked pool
workers inherit them. Every file a run writes goes to a temp file that
then replaces the target.

Every block allocates and frees buffers of 0.5-0.8 MB: exponent blocks,
scoring chunks, the decoder's message arrays. glibc's malloc serves such
a buffer by mmap, or trims it off the heap when it is freed, until a
freed buffer has raised its dynamic thresholds; so a fresh worker's speed
would depend on what its parent ran before, and each one would fault the
same pages again. Before its first block, a run therefore fixes glibc's
thresholds in the calling process, whose threads share them and whose
forked workers inherit them: allocations below 32 MiB come from the heap,
and freed heap is kept for reuse up to 256 MiB per process rather than
handed back to the OS. A libc without ``mallopt`` is left as it is. The
calling process also imports ``numpy.random`` before the first block, so
that no forked worker imports it.
"""

from __future__ import annotations

import contextlib
import ctypes
import errno
import functools
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .channel import n0_from_psnr, transmit
from .coding import (ParityCheckCode, bundled_code, decode_bp, encode, info_bits_of, interleave,
                     interleaver_permutation, load_alist)
from .constellation import SUPPORTED_QAM_SIZES, load_constellation
from .demapper import (DEMAPPER_KINDS, DEMAPPERS, FAMILIES, custom_context, demap, estimate_affine_compensation,
                       qam_context, qci_context)
from .errors import ConfigError
from .metrics import GMI_MIN_SAMPLES, SweepRecord, Tally, gmi_symbol_scores, scatter_dump, tally_record

MODES = ("uncoded_ber", "coded_ber", "gmi", "scatter", "complexity")

GMI_BLOCK_SYMBOLS = 125_000
UNCODED_BLOCK_SYMBOLS = 25_000
CODED_BLOCK_FRAMES = 25
COMP_SAMPLES = 100_000  # symbols per affine-compensation estimate
MAX_GRID_POINTS = 10_000
# Largest worker count. A fork pool starts all its workers at its first map,
# each a process with its own copy of the run's state, and blocks are CPU
# bound, so workers beyond the CPUs gain nothing; 256 is the logical CPU
# count of a large two-socket server.
MAX_WORKERS = 256
# Largest noise power (PSNR -3000 dB). Noise of power n0 puts received points
# at squared distances of a few n0, and a block sums up to COMP_SAMPLES of
# them; at n0 <= 1e300 all of these stay far below the float64 maximum
# (1.8e308), so no distance, exponent or score overflows to inf or NaN.
MAX_N0 = 1e300
# Smallest noise power (PSNR 3000 dB). The demappers divide squared distances
# of at most a few units by n0; at n0 >= 1e-300 the quotients stay below
# 1e301, while at the 1e-308 of 3080 dB they overflow to inf.
MIN_N0 = 1e-300

# stream tags keep the per-purpose generators independent
_TAG_GMI, _TAG_COMP, _TAG_UNCODED, _TAG_CODED, _TAG_SCATTER = range(5)

_DEFAULT_SAMPLES = {
    "gmi": 1_000_000,       # symbols per grid point
    "uncoded_ber": 10_000_000,  # bit budget per grid point
    "coded_ber": 10_000,    # frame budget per grid point
    "scatter": 20_000,      # symbols dumped
    "complexity": 256,      # symbols demapped by each kind
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
    code_file: str | None = None
    seed: int = 1
    workers: int = 0          # 0 -> CPUs this process may run on
    output: str | None = "sweep.csv"  # None -> run() returns the records and writes no CSV


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
    if cfg.family != "file" and cfg.constellation_file:
        raise ConfigError(f"constellation_file is read only by family 'file', not {cfg.family!r}")
    if cfg.family != "file" and cfg.M not in SUPPORTED_QAM_SIZES:
        raise ConfigError(f"unsupported M={cfg.M} for family {cfg.family!r}; "
                          f"choose from {SUPPORTED_QAM_SIZES}")
    spec = DEMAPPERS[cfg.demapper]
    # scatter and complexity runs never demap with cfg.demapper
    if cfg.mode in ("gmi", "uncoded_ber", "coded_ber") and cfg.family not in spec.families:
        what = " (compensation of the inverse radial map)" if spec.needs_comp else ""
        raise ConfigError(f"demapper {cfg.demapper!r}{what} supports only the families "
                          f"{spec.families}, not {cfg.family!r}")
    if not all(math.isfinite(v) for v in (cfg.psnr_start, cfg.psnr_stop, cfg.psnr_step)):
        raise ConfigError("psnr_start, psnr_stop and psnr_step must be finite")
    if cfg.psnr_step <= 0.0:
        raise ConfigError("psnr_step must be positive")
    if cfg.psnr_start > cfg.psnr_stop:
        raise ConfigError("psnr_start must not exceed psnr_stop")
    # n0 falls with the PSNR, so valid ends make every grid point's n0 valid
    for psnr in (cfg.psnr_start, cfg.psnr_stop):
        try:
            n0 = n0_from_psnr(psnr)
        except OverflowError:
            n0 = math.inf
        if not MIN_N0 <= n0 <= MAX_N0:
            raise ConfigError(f"PSNR {psnr:.12g} dB gives the noise power 10^({-psnr:.12g}/10), outside "
                              f"[{MIN_N0:g}, {MAX_N0:g}]; a larger one overflows the noisy points' squared "
                              f"distances, a smaller one the distances divided by it")
    # psnr_grid builds floor(span + 1e-9) + 1 points; a NaN or inf span fails too
    span = (cfg.psnr_stop - cfg.psnr_start) / cfg.psnr_step
    if not span + 1e-9 < MAX_GRID_POINTS:
        raise ConfigError(f"the PSNR grid {cfg.psnr_start:g}:{cfg.psnr_stop:g}:{cfg.psnr_step:g} has "
                          f"more than {MAX_GRID_POINTS} points")
    if cfg.samples < 0 or cfg.target_errors < 0:
        raise ConfigError("samples and target_errors must be nonnegative")
    if cfg.target_errors and cfg.mode not in _DEFAULT_TARGET_ERRORS:
        raise ConfigError(f"target_errors is read only by the modes {tuple(_DEFAULT_TARGET_ERRORS)}, "
                          f"not {cfg.mode!r}")
    if cfg.code_file and cfg.mode != "coded_ber":
        raise ConfigError(f"code_file is read only by mode 'coded_ber', not {cfg.mode!r}")
    if cfg.mode == "gmi" and resolved_samples(cfg) < GMI_MIN_SAMPLES:
        raise ConfigError(f"gmi mode needs samples >= {GMI_MIN_SAMPLES}")
    if cfg.seed < 0 or cfg.workers < 0:
        raise ConfigError("seed and workers must be nonnegative")
    if cfg.workers > MAX_WORKERS:
        raise ConfigError(f"workers must not exceed {MAX_WORKERS}")
    if cfg.mode == "scatter" and cfg.output is None:
        raise ConfigError("scatter mode writes its dump to output, which must be set")


def resolved_samples(cfg: SimConfig) -> int:
    return cfg.samples if cfg.samples > 0 else _DEFAULT_SAMPLES[cfg.mode]


def resolved_target_errors(cfg: SimConfig) -> int:
    """Error target of a BER-mode grid point; 0 (none) in every other mode."""
    if cfg.mode not in _DEFAULT_TARGET_ERRORS:
        return 0
    return cfg.target_errors if cfg.target_errors > 0 else _DEFAULT_TARGET_ERRORS[cfg.mode]


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
# block tasks (run inline, on pool threads or in forked pool workers)

# the cfg, ctx, code, interleaver permutation and deinterleave index of the
# run in progress; _block_pool sets it before the pool starts, so threads
# share it and forked workers inherit it, and clears it when the run ends
_WORKER: dict = {}


def _comp_task(args):
    point, n0 = args
    cfg, ctx = _WORKER["cfg"], _WORKER["ctx"]
    return estimate_affine_compensation(ctx, n0, COMP_SAMPLES, derived_rng(cfg.seed, _TAG_COMP, point, 0))


def _gmi_task(args):
    point, block, n0, num, comp = args
    cfg, ctx = _WORKER["cfg"], _WORKER["ctx"]
    rng = derived_rng(cfg.seed, _TAG_GMI, point, block)
    scores = gmi_symbol_scores(ctx, cfg.demapper, n0, num, rng, comp=comp)
    return Tally(scores.size, 0, float(np.sum(scores)), float(np.sum(scores ** 2)))


def _uncoded_task(args):
    point, block, n0, num, comp = args
    cfg, ctx = _WORKER["cfg"], _WORKER["ctx"]
    rng = derived_rng(cfg.seed, _TAG_UNCODED, point, block)
    idx, y = ctx.draw(num, n0, rng)
    frame = demap(cfg.demapper, y, ctx, n0, comp)
    errors = int(np.sum(frame.hard_bits() != np.take(ctx.constellation.labels, idx, axis=0)))
    # a bit is a trial with a 0/1 error sample, so errors is also its sum of squares
    return Tally(num * ctx.m, errors, errors, errors)


def _coded_task(args):
    point, block, n0, frames, comp = args
    cfg, ctx, code, perm, unperm = (_WORKER[k] for k in ("cfg", "ctx", "code", "perm", "unperm"))
    rng = derived_rng(cfg.seed, _TAG_CODED, point, block)
    info = rng.integers(0, 2, size=(frames, code.k), dtype=np.uint8)
    coded = encode(code, info)
    tx_bits = interleave(coded, perm)
    idx = ctx.constellation.indices_of(tx_bits.reshape(frames, -1, ctx.m))
    y = transmit(np.take(ctx.constellation.points, idx.reshape(-1), axis=0), n0, rng)
    frame = demap(cfg.demapper, y, ctx, n0, comp)
    # one gather from the bit-major (m, frames, symbols) LLRs into deinterleaved frames
    llrs = frame.values.T.reshape(ctx.m, frames, -1).transpose(1, 0, 2)[:, unperm[1], unperm[0]]
    bits, _, _ = decode_bp(code, llrs)
    info_hat = info_bits_of(code, bits)
    e = np.sum(info_hat != info, axis=1)
    return Tally(frames, int(np.count_nonzero(e)), int(np.sum(e)), int(np.sum(e * e)))


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


# glibc's mallopt parameters (malloc.h) and the values set: 32 MiB is the
# largest mmap threshold glibc takes on a 64-bit host
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 256 << 20


@functools.cache
def _fix_malloc_thresholds() -> bool:
    """Keep freed block buffers in this process's heap; False where libc has no ``mallopt``.

    Fixed thresholds also switch off glibc's dynamic ones, so processes
    forked from here behave alike whatever ran before.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to open
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD), mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)])


def _usable_cpus() -> int:
    """CPUs this process may run on, which an affinity mask or cpuset can limit."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _share_cores_with_blas(workers: int, cores: int) -> None:
    """Split the cores between the block pool and OpenBLAS.

    Pool threads share the calling process's OpenBLAS thread count and
    forked workers inherit it, and an idle OpenBLAS helper thread keeps
    spinning on a core, so before a pool of ``workers`` starts the count
    becomes ``cores // workers`` (at least one) and workers x threads
    stays within the cores. An inline run gets
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


def _cpu_shares(workers: int) -> list:
    """The CPU set of each of ``workers`` pool threads: share i is ``cpus[i::workers]`` of the caller's mask.

    With more workers than CPUs, each thread past the last CPU takes one
    CPU, round-robin.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return [cpus[i::workers] or [cpus[i % len(cpus)]] for i in range(workers)]


def _pin_thread(shares: list) -> None:
    """Initializer of a pool thread: run this thread, not the process, on one share of ``shares``."""
    with contextlib.suppress(OSError):  # a CPU left the mask since the shares were taken: stay unpinned
        os.sched_setaffinity(0, shares.pop())


@contextlib.contextmanager
def _block_pool(workers: int, mode: str, **worker):
    """Yield ``(map, workers)``: the builtin ``map`` at one worker, else the ordered map of a pool.

    ``workers`` 0 means every usable CPU. ``mode`` coded_ber gets a fork
    pool of processes, every other mode a pool of threads, each pinned to
    its share of the caller's CPUs where the platform has affinity masks
    (see the module docstring for why). ``_WORKER`` holds ``worker`` until
    exit, so that threads share it and forked workers inherit it, as they
    inherit the malloc thresholds fixed here. A forked worker that dies
    (OOM killer, SIGKILL) makes the map raise ``BrokenProcessPool`` at
    once. No thread or process of the pool outlives the ``with`` block.
    """
    _fix_malloc_thresholds()
    # numpy imports numpy.random at its first use, about 13 ms; here, once,
    # rather than in every forked worker that draws a block
    import numpy.random  # noqa: F401
    cores = _usable_cpus()
    workers = workers or cores
    _share_cores_with_blas(workers, cores)
    _WORKER.update(worker)
    try:
        if workers == 1:
            yield map, 1
        elif mode == "coded_ber":
            # ~10 ms of imports that inline and threaded runs skip
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
                yield pool.map, workers
        else:
            from concurrent.futures import ThreadPoolExecutor
            pin = ({"initializer": _pin_thread, "initargs": (_cpu_shares(workers),)}
                   if hasattr(os, "sched_setaffinity") else {})
            with ThreadPoolExecutor(workers, "qcilink-block", **pin) as pool:
                yield pool.map, workers
    finally:
        _WORKER.clear()


def _split_blocks(total: int, block: int) -> list:
    sizes = [block] * (total // block)
    if total % block:
        sizes.append(total % block)
    return sizes


def check_output(path) -> None:
    """Raise an OSError now, before any Monte Carlo work, if ``path`` cannot be written."""
    if not os.path.basename(path):  # "" and "dir/" name no file
        raise FileNotFoundError(errno.ENOENT, "the output path names no file", path)
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, "no such output directory", parent)
    if os.path.isdir(path) or not os.access(parent, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, "output is not writable", path)


def run(cfg: SimConfig) -> list:
    """Execute the configured experiment; returns records and writes the CSV unless ``output`` is None."""
    validate_config(cfg)
    if cfg.output is not None:
        check_output(cfg.output)
    ctx = build_context(cfg)
    grid = psnr_grid(cfg)
    records: list[SweepRecord] = []

    if cfg.mode == "scatter":
        check_output(_centers_path(cfg.output))
        rng = derived_rng(cfg.seed, _TAG_SCATTER, 0, 0)
        _write_scatter_csv(scatter_dump(ctx, n0_from_psnr(grid[0]), resolved_samples(cfg), rng), ctx, cfg.output)
        return records

    if cfg.mode == "complexity":
        n0 = n0_from_psnr(grid[0])
        num = resolved_samples(cfg)
        _, y = ctx.draw(num, n0, derived_rng(cfg.seed, _TAG_UNCODED, 0, 0))
        # every kind that runs on this family without a compensation estimate
        kinds = [k for k, spec in DEMAPPERS.items() if ctx.family in spec.families and not spec.needs_comp]
        for kind in kinds:
            frame = demap(kind, y, ctx, n0)
            per_symbol = frame.distance_evals / frame.num_symbols
            records.append(
                SweepRecord(grid[0], "evals_per_symbol", per_symbol, 0.0, num, ctx.name, kind, cfg.seed)
            )
        if cfg.output is not None:
            write_records_csv(records, cfg.output)
        return records

    code = load_code(cfg) if cfg.mode == "coded_ber" else None
    if code is not None and code.n % ctx.m:
        raise ConfigError(f"code length {code.n} is not a multiple of {ctx.m} bits/symbol")

    perm = interleaver_permutation(code.n, cfg.seed) if code is not None else None
    # deinterleaved bit i sits at interleaved position q = argsort(perm)[i]:
    # symbol q // m of its frame, bit q % m
    unperm = np.divmod(np.argsort(perm), ctx.m) if code is not None else None
    label = (ctx.name, cfg.demapper, cfg.seed)
    with _block_pool(cfg.workers, cfg.mode, cfg=cfg, ctx=ctx, code=code, perm=perm, unperm=unperm) as pool:
        if cfg.mode == "gmi":
            points = _run_blocks(cfg, grid, *pool, _gmi_task, GMI_BLOCK_SYMBOLS, resolved_samples(cfg))
            records = [tally_record(psnr, "gmi", tally, *label) for psnr, tally in points]
        elif cfg.mode == "uncoded_ber":
            budget_syms = max(1, math.ceil(resolved_samples(cfg) / ctx.m))
            points = _run_blocks(cfg, grid, *pool, _uncoded_task, UNCODED_BLOCK_SYMBOLS, budget_syms)
            records = [tally_record(psnr, "ber", tally, *label) for psnr, tally in points]
        else:
            points = _run_blocks(cfg, grid, *pool, _coded_task, CODED_BLOCK_FRAMES, resolved_samples(cfg))
            for psnr, tally in points:
                # the FER row's sample is 0/1 per frame: its sums are the frame errors
                records += [tally_record(psnr, "ber", tally, *label, per=code.k),
                            tally_record(psnr, "fer", tally._replace(s1=tally.errors, s2=tally.errors), *label)]
    if cfg.output is not None:
        write_records_csv(records, cfg.output)
    return records


def _run_blocks(cfg, grid, pool_map, workers, task, block_unit, budget) -> list:
    """The one Monte Carlo loop: each grid point's PSNR with the summed ``Tally`` of its kept blocks.

    Blocks go out in rounds that span the grid, one ``pool_map`` per
    round. A round holds the next blocks of every open point, one still
    below its error target and within its budget: max(1, ceil(workers /
    open points)) blocks each in a BER mode, so a block that early stopping
    may discard is computed only when fewer points are open than there are
    workers. gmi has no target, so its first round holds every block of
    every point. A point keeps its blocks in block order up to the first
    that meets its target and drops the rest; block b of point p draws from
    its own generator, so the kept blocks, and with them the output, do not
    depend on how many workers ran or how the rounds fell. A compensated
    kind's estimates, one per point from its own generator, go out in one
    ``pool_map`` before the first round.
    """
    target = resolved_target_errors(cfg)
    stop = target or math.inf  # gmi has no error target
    sizes = _split_blocks(budget, block_unit)
    n0s = [n0_from_psnr(psnr) for psnr in grid]
    comps = [None] * len(grid)
    if DEMAPPERS[cfg.demapper].needs_comp:
        comps = list(pool_map(_comp_task, list(enumerate(n0s))))
    kept = [[] for _ in grid]
    errors = [0] * len(grid)
    sent = [0] * len(grid)  # blocks dispatched per point
    open_points = list(range(len(grid)))
    while open_points:
        per = max(1, math.ceil(workers / len(open_points))) if target else len(sizes)
        tasks = [(p, b, n0s[p], sizes[b], comps[p])
                 for p in open_points for b in range(sent[p], min(sent[p] + per, len(sizes)))]
        for (p, b, *_), res in zip(tasks, pool_map(task, tasks)):
            sent[p] = b + 1
            if errors[p] < stop:
                kept[p].append(res)
                errors[p] += res.errors
        open_points = [p for p in open_points if sent[p] < len(sizes) and errors[p] < stop]
    return [(psnr, Tally(*map(sum, zip(*k)))) for psnr, k in zip(grid, kept)]


@contextlib.contextmanager
def _atomic_open(path):
    """Open a temp file next to ``path`` for writing; it replaces ``path`` once complete.

    An interrupted write removes the temp file and never leaves a truncated
    file at ``path``.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_records_csv(records, path) -> None:
    """Write sweep records in the shared CSV schema, atomically."""
    with _atomic_open(path) as fh:
        fh.write("psnr_db,metric,value,stderr,trials,constellation,demapper,seed\n")
        for r in records:
            fh.write(f"{r.psnr_db:.10g},{r.metric},{r.value:.10g},{r.stderr:.10g},"
                     f"{r.trials},{r.constellation},{r.demapper},{r.seed}\n")


def _centers_path(path) -> str:
    """The ``*_centers.csv`` sibling that holds a scatter dump's centers."""
    return "{}_centers{}".format(*os.path.splitext(path))


def _write_scatter_csv(dump, ctx, path) -> None:
    """Write a scatter dump's sample rows to ``path`` and its centers to a sibling ``*_centers.csv``, atomically."""
    with _atomic_open(path) as fh:
        fh.write(f"# qci-scatter v1, M={ctx.M}, constellation={ctx.name}\n")
        fh.write("x_qam_u,x_qam_v,z_u,z_v\n")
        # streamed %-formats of Python floats, each of the M grid points formatted
        # once: no numpy scalar is formatted, and no string holds all rows at once
        grid = list(map("%.10g,%.10g,".__mod__, zip(*ctx.qam_grid.points.T.tolist())))
        remapped = map("%.10g,%.10g\n".__mod__, zip(*dump.remapped.T.tolist()))
        fh.writelines(map(str.__add__, map(grid.__getitem__, dump.point_index.tolist()), remapped))
    with _atomic_open(_centers_path(path)) as fh:
        fh.write(f"# qci-scatter-centers v1, M={ctx.M}, constellation={ctx.name}\n")
        fh.write("point_index,qam_u,qam_v,center_u,center_v,count\n")
        rows = zip(range(ctx.M), *ctx.qam_grid.points.T, *dump.centers.T, dump.counts)
        fh.writelines(map("%d,%.10g,%.10g,%.10g,%.10g,%d\n".__mod__, rows))
