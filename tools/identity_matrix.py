"""Run a fixed matrix of qcilink experiments and print the sha256 of each output.

The matrix covers every valid (family, demapper) GMI run, uncoded and
coded BER runs with early stops (on qci16 also with
``qci_lcd_compensated``), scatter runs with their centers (one so
sparse that most centers are NaN), complexity runs for the qam, qci and
file families, and ``make-figures --sizes 16``, each at workers 1, 2 and
3; at 3 some rounds and some runs' compensation estimates hold fewer
items than there are workers, so the split into worker shares meets its
empty shares. It also writes the raw float64 LLR bytes and both
counters of ``demap`` for every valid (family, demapper) on one fixed
draw, of the full-2D demappers at M = 16, 64, 256 and 1024 on 1, 7 and 40 000 symbols, and of the per-axis
demappers ``qci_lcd`` and ``qam_decomposed`` at the same sizes on 40 000
symbols, of the full-2D demappers once more on qci256 at 40 dB, where
cancellation in the exponents matters most, and the raw float64 bytes of
``gmi_symbol_scores`` for every valid (family, demapper) at M = 16 and
64 on one fixed seed, for exact2d and qci_remapped_2d on qci256 at
22 dB, and for qci_lcd on qci16 and exact2d on qci256 on 100 003
symbols, which is not a whole number of scoring chunks, so a demapper or
scoring change is checked at full precision and not only through the
10-digit CSVs. It writes the raw bytes of ``radial_forward`` and
``radial_inverse`` on fixed edge points: the origin, the axes and
diagonals, and coordinates down to 1e-320 and up to 1.7e308 (some
forward images overflow to inf there). For the bundled
LDPC code, the 48-bit PEG code committed as ``tests/peg_dv3_n48.alist``,
a seeded irregular 400-bit code with variable degrees 1 to 8, built
here, and the 12-bit hand-built code of the decoder's oracle test (check
degrees 1 to 7), it writes the raw bytes of ``encode`` on one seeded
info block, and of the bits, converged flags and iteration counts that
``decode_bp`` returns for those codewords sent as BPSK over seeded AWGN
at three noise levels per code, where some frames converge within a few
iterations and others hit the 50-iteration cap. These hard decisions
come out the same under float32 and float64 messages, so the tool also
writes the raw float32 replies of one check-node update
(``_check_update``) on the half-scale first-iteration messages of each
noise level, on the real edges only, which move with any change of the
decoder's precision or clamps. It also writes the bits, converged flags
and iteration counts of one 75-frame bundled batch at the middle noise
level, three times the decoder's running batch, decoded by one call, so
that the frames that take over the columns of those that leave are
checked too. It also writes the ``gray_check``
violation triples of qci16, qci64, qci256, qam64, pam8 and of a qci64
with the labels of points 9 and 30 swapped. Running it on two trees and
diffing the printed lists shows whether a change kept every output
byte-identical; diff a demapper change both at the default thread count
and with ``OPENBLAS_NUM_THREADS=1``, since BLAS splits its products by
thread.

Run from the repository root:  python tools/identity_matrix.py OUTDIR
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from qcilink import (Constellation, ParityCheckCode, build_pam, build_qam, build_qci, bundled_code,  # noqa: E402
                     decode_bp, encode, gray_check, load_alist, n0_from_psnr, radial_forward, radial_inverse,
                     save_constellation)
from qcilink.cli import main as cli_main  # noqa: E402
from qcilink.coding import _check_update, _fill  # noqa: E402
from qcilink.demapper import DEMAPPERS, demap, estimate_affine_compensation  # noqa: E402
from qcilink.harness import SimConfig, build_context, run  # noqa: E402
from qcilink.metrics import gmi_symbol_scores  # noqa: E402

WORKERS = (1, 2, 3)
FULL_2D_KINDS = ("exact2d", "maxlog2d", "qci_remapped_2d")
SEED = 7
TOY_ALIST = Path(__file__).resolve().parents[1] / "tests" / "peg_dv3_n48.alist"
# BPSK noise standard deviations per code: all frames converge early at the
# first, some and then most frames hit the iteration cap at the other two
BUNDLED_SIGMAS, TOY_SIGMAS, IRREGULAR_SIGMAS = (0.5, 0.6, 0.65), (0.6, 0.8, 0.9), (0.5, 0.85, 0.9)
HANDBUILT_SIGMAS = (0.6, 0.9, 1.0)
# the hand-built code of tests/test_coding.py: check degrees 1, 2, 4, 5, 6 and 7
HANDBUILT_CHECKS = [[0], [1, 2], [2, 3, 4, 5], [0, 3, 6, 7, 8], [1, 4, 6, 9, 10, 11],
                    [2, 5, 7, 8, 9, 10, 11]]


def _runs(const_file: str) -> dict:
    """Output name -> SimConfig keywords, without workers and output."""

    def file_of(family):  # only the file family takes a constellation file
        return const_file if family == "file" else None

    runs = {}
    for kind, spec in DEMAPPERS.items():
        for family in spec.families:
            # 150k symbols: one full and one partial GMI block per point
            runs[f"gmi_{family}16_{kind}"] = dict(
                mode="gmi", family=family, M=16, demapper=kind, constellation_file=file_of(family),
                psnr_start=10.0, psnr_stop=12.0, psnr_step=1.0, samples=150_000)
    runs["gmi_qci64_qci_lcd_compensated"] = dict(
        mode="gmi", family="qci", M=64, demapper="qci_lcd_compensated",
        psnr_start=17.0, psnr_stop=17.0, samples=250_000)
    # low PSNRs meet the error target in the first or a later block, high ones run out of budget
    runs["uncoded_qam16"] = dict(mode="uncoded_ber", family="qam", M=16, demapper="qam_decomposed",
                                 psnr_start=6.0, psnr_stop=18.0, psnr_step=3.0,
                                 samples=2_000_000, target_errors=1_000)
    runs["uncoded_qci16"] = dict(mode="uncoded_ber", family="qci", M=16, demapper="qci_lcd",
                                 psnr_start=10.0, psnr_stop=22.0, psnr_step=3.0,
                                 samples=1_010_000, target_errors=200)
    runs["uncoded_file64"] = dict(mode="uncoded_ber", family="file", M=64, demapper="exact2d",
                                  constellation_file=const_file, psnr_start=14.0, psnr_stop=26.0,
                                  psnr_step=4.0, samples=600_000, target_errors=300)
    for family, kind in (("qci", "qci_lcd"), ("qam", "qam_decomposed")):
        runs[f"coded_{family}16"] = dict(mode="coded_ber", family=family, M=16, demapper=kind,
                                         psnr_start=11.0, psnr_stop=13.0, psnr_step=1.0,
                                         samples=100, target_errors=20)
    # a compensated BER run estimates its gain and offset at every grid point, as gmi does
    for name in ("uncoded_qci16", "coded_qci16"):
        runs[f"{name}_qci_lcd_compensated"] = dict(runs[name], demapper="qci_lcd_compensated")
    # scatter and complexity runs name exact2d, the demapper every family accepts
    for family, M in (("qci", 16), ("qam", 16), ("file", 64), ("qci", 256)):
        runs[f"scatter_{family}{M}"] = dict(mode="scatter", family=family, M=M, demapper="exact2d",
                                            constellation_file=file_of(family),
                                            psnr_start=12.0, psnr_stop=12.0, samples=3_000)
    # 100 symbols on 256 points: most points are never drawn and get a NaN center
    runs["scatter_qci256_sparse"] = dict(runs["scatter_qci256"], samples=100)
    for family, M in (("qam", 16), ("qci", 64), ("file", 64), ("qam", 256)):
        runs[f"complexity_{family}{M}"] = dict(mode="complexity", family=family, M=M,
                                               demapper="exact2d", constellation_file=file_of(family),
                                               psnr_start=12.0, psnr_stop=12.0)
    return runs


def _write_llrs(outdir: Path, const_file: str) -> None:
    """Raw LLR bytes of every valid (family, demapper) on one seeded draw, plus both counters.

    The full-2D kernels also run on qci16, qci64, qci256 and qci1024 at 1
    and 7 symbols (BLAS takes its small-matrix paths there) and at 40 000
    symbols, which the kernels cut into many row blocks. M = 16 and 1024
    are the sizes where a change of BLAS blocking has moved LLR bytes. The
    per-axis kernels run at the same sizes on 40 000 symbols, qci_lcd on
    the qci family and qam_decomposed on the qam family. The full-2D
    kernels run once more on qci256 at 40 dB, where the exponents reach
    1e4 before their shift and a change of their rounding shows most.
    All other draws are at 12 dB.
    """
    n0 = n0_from_psnr(12.0)
    counters = ["name,num_symbols,distance_evals,map_evals"]

    def write(name, kind, ctx, num, comp=None, n0=n0):
        _, y = ctx.draw(num, n0, np.random.default_rng(SEED))
        frame = demap(kind, y, ctx, n0, comp)
        (outdir / f"{name}.f64").write_bytes(frame.values.tobytes())
        counters.append(f"{name},{frame.num_symbols},{frame.distance_evals},{frame.map_evals}")

    for kind, spec in DEMAPPERS.items():
        for family in spec.families:
            ctx = build_context(SimConfig(family=family, M=16, constellation_file=const_file))
            comp = None
            if spec.needs_comp:
                comp = estimate_affine_compensation(ctx, n0, 20_000, np.random.default_rng(SEED))
            write(f"llr_{ctx.name}_{kind}", kind, ctx, 2_000, comp)
    for M in (16, 64, 256, 1024):
        ctx = build_context(SimConfig(family="qci", M=M))
        for kind in FULL_2D_KINDS:
            for num in (1, 7, 40_000):
                write(f"llr_{ctx.name}_{kind}_n{num}", kind, ctx, num)
        for family, kind in (("qci", "qci_lcd"), ("qam", "qam_decomposed")):
            ctx = build_context(SimConfig(family=family, M=M))
            write(f"llr_{ctx.name}_{kind}_n40000", kind, ctx, 40_000)
    ctx = build_context(SimConfig(family="qci", M=256))
    for kind in FULL_2D_KINDS:
        write(f"llr_{ctx.name}_{kind}_40dB_n40000", kind, ctx, 40_000, n0=n0_from_psnr(40.0))
    (outdir / "llr_counters.csv").write_text("\n".join(counters) + "\n")


def _write_scores(outdir: Path, const_file: str) -> None:
    """Raw ``gmi_symbol_scores`` bytes of every valid (family, demapper) at M = 16 and 64 on one seed.

    The file family reads its 64-point constellation at both sizes.
    exact2d and qci_remapped_2d also score qci256 at 22 dB, the point where
    the ``gmi_ml`` benchmark workload runs them.
    """
    n0 = n0_from_psnr(12.0)
    for kind, spec in DEMAPPERS.items():
        for family in spec.families:
            for M in (16, 64):
                ctx = build_context(SimConfig(family=family, M=M, constellation_file=const_file))
                comp = None
                if spec.needs_comp:
                    comp = estimate_affine_compensation(ctx, n0, 20_000, np.random.default_rng(SEED))
                scores = gmi_symbol_scores(ctx, kind, n0, 40_000, np.random.default_rng(SEED), comp)
                (outdir / f"scores_{family}{M}_{kind}.f64").write_bytes(scores.tobytes())
    ctx = build_context(SimConfig(family="qci", M=256))
    for kind in ("exact2d", "qci_remapped_2d"):
        scores = gmi_symbol_scores(ctx, kind, n0_from_psnr(22.0), 40_000, np.random.default_rng(SEED))
        (outdir / f"scores_qci256_{kind}_22dB.f64").write_bytes(scores.tobytes())
    for M, kind in ((16, "qci_lcd"), (256, "exact2d")):
        ctx = build_context(SimConfig(family="qci", M=M))
        scores = gmi_symbol_scores(ctx, kind, n0, 100_003, np.random.default_rng(SEED))
        (outdir / f"scores_qci{M}_{kind}_n100003.f64").write_bytes(scores.tobytes())


def _write_radial(outdir: Path) -> None:
    """Raw bytes of both radial maps on the origin, the axes and diagonals, and the float range's ends."""
    tiny, huge = 1e-320, 1.7e308
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, -1.0], [-0.5, 0.0], [1.0, 1.0], [-1.0, 1.0], [0.3, -0.3],
                    [0.3, 0.1], [1.0, tiny], [tiny, 0.0], [0.0, -tiny], [tiny, tiny], [tiny, -3e-321],
                    [huge, 0.0], [0.0, -huge], [huge, huge], [-huge, huge], [huge, 1e308], [huge, tiny],
                    [tiny, -huge]])
    with np.errstate(over="ignore", invalid="ignore"):
        for fn in (radial_forward, radial_inverse):
            (outdir / f"{fn.__name__}_edges.f64").write_bytes(fn(pts).tobytes())


def _write_gray(outdir: Path) -> None:
    """The ``gray_check`` violations, one ``point,neighbor,hamming`` line each.

    Five built constellations pass and write empty files; the qci64 with
    two labels swapped fails at both points and at their neighbors.
    """
    swapped = build_qci(64)
    labels = swapped.labels.copy()
    labels[[9, 30]] = labels[[30, 9]]
    for name, c in (("qci16", build_qci(16)), ("qci64", build_qci(64)), ("qci256", build_qci(256)),
                    ("qam64", build_qam(64)), ("pam8", build_pam(8)),
                    ("qci64_swapped", Constellation(swapped.points, labels))):
        lines = [f"{i},{j},{h}\n" for i, j, h in gray_check(c).violations]
        (outdir / f"gray_{name}.csv").write_text("".join(lines))


def _irregular_code() -> ParityCheckCode:
    """Rate-1/2 code of 400 bits; variable v joins v % 8 + 1 checks drawn at random.

    Up to 8 edges per variable, the decoder's per-variable sums run in
    the order of numpy's reduceat. This seed gives a full-rank matrix with
    no empty check.
    """
    rng = np.random.default_rng(SEED)
    checks = [[] for _ in range(200)]
    for v in range(400):
        for c in rng.choice(200, size=v % 8 + 1, replace=False):
            checks[c].append(v)
    return ParityCheckCode(400, checks, name="irregular_n400")


def _write_codes(outdir: Path) -> None:
    """Raw bytes of ``encode`` on one seeded (25, k) info block per code, and of ``decode_bp`` on its codewords.

    Each noise level also writes the check-node replies to its first
    iteration: half the channel LLRs as float32, taken in the decoder's
    variable order and gathered into its edge-major (D*C, frames) layout,
    with the replies of the real edges written frame by frame, as (frames,
    edges) rows in layout order. A filler's reply is never read.
    """
    for code, sigmas in ((bundled_code(), BUNDLED_SIGMAS), (load_alist(TOY_ALIST), TOY_SIGMAS),
                         (_irregular_code(), IRREGULAR_SIGMAS),
                         (ParityCheckCode(12, HANDBUILT_CHECKS, name="handbuilt_n12"), HANDBUILT_SIGMAS)):
        rng = np.random.default_rng(SEED)
        cw = encode(code, rng.integers(0, 2, size=(25, code.k), dtype=np.uint8))
        (outdir / f"codewords_{code.name}.u8").write_bytes(cw.tobytes())
        noise = rng.standard_normal(cw.shape)
        real = np.ones((code.col_var.size // code.num_checks, code.num_checks), dtype=bool)
        _fill(real, False, code)
        for sigma in sigmas:
            llrs = 2.0 * (1.0 - 2.0 * cw + sigma * noise) / sigma ** 2
            bits, converged, iters = decode_bp(code, llrs)
            q = np.take(0.5 * llrs[:, code.var_order].astype(np.float32).T, code.col_var, axis=0)
            replies = np.empty_like(q)
            _check_update(q, replies, code)
            replies = replies[real.reshape(-1)].T
            for part, arr in (("bits.u8", bits), ("converged.b1", converged), ("iters.i64", iters),
                              ("replies.f32", replies)):
                (outdir / f"decoded_{code.name}_sigma{sigma}_{part}").write_bytes(arr.tobytes())


def _write_long_batch(outdir: Path) -> None:
    """Raw bytes of ``decode_bp`` on one call of 75 seeded bundled-code frames at the middle noise level."""
    code, sigma = bundled_code(), BUNDLED_SIGMAS[1]
    rng = np.random.default_rng(SEED)
    cw = encode(code, rng.integers(0, 2, size=(75, code.k), dtype=np.uint8))
    llrs = 2.0 * (1.0 - 2.0 * cw + sigma * rng.standard_normal(cw.shape)) / sigma ** 2
    for part, arr in zip(("bits.u8", "converged.b1", "iters.i64"), decode_bp(code, llrs)):
        (outdir / f"decoded_{code.name}_batch75_sigma{sigma}_{part}").write_bytes(arr.tobytes())


def main() -> None:
    if len(sys.argv) != 2:
        raise SystemExit("usage: python tools/identity_matrix.py OUTDIR")
    outdir = Path(sys.argv[1])
    outdir.mkdir(parents=True, exist_ok=True)
    const_file = outdir / "file64.csv"
    save_constellation(build_qci(64), const_file)
    _write_llrs(outdir, str(const_file))
    _write_scores(outdir, str(const_file))
    _write_radial(outdir)
    _write_codes(outdir)
    _write_long_batch(outdir)
    _write_gray(outdir)
    for workers in WORKERS:
        for name, spec in _runs(str(const_file)).items():
            run(SimConfig(**spec, seed=SEED, workers=workers, output=str(outdir / f"w{workers}_{name}.csv")))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(["make-figures", "--outdir", str(outdir / f"w{workers}_figures"), "--sizes", "16",
                           "--samples", "100000", "--step", "1.0", "--seed", str(SEED),
                           "--workers", str(workers)])
        if rc != 0:
            raise SystemExit(f"make-figures exited {rc}")
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        print(hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(outdir))


if __name__ == "__main__":
    main()
