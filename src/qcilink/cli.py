"""Command-line front end.

Subcommands wire the library into reproducible batch experiments; outputs
are CSV files (plotting is left to the emitted matplotlib script). Exit
codes: 0 success, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .constellation import (
    build_pam,
    build_qam,
    build_qci,
    gray_check,
    load_constellation,
    normalize_peak,
    save_constellation,
)
from .errors import ConfigError, DataFormatError
from .harness import SimConfig, parse_config, run, write_records_csv

# PSNR windows bracketing the rate-3/4 waterfall region per constellation size
DEFAULT_FIGURE_WINDOWS = {16: (10.0, 15.0), 64: (16.0, 21.0), 256: (21.5, 26.5)}


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--family", choices=("qam", "qci", "file"))
    p.add_argument("--M", type=int, dest="M")
    p.add_argument("--constellation-file", dest="constellation_file")
    p.add_argument("--demapper")
    p.add_argument("--psnr", help="sweep as start:stop:step in dB")
    p.add_argument("--samples", type=int)
    p.add_argument("--target-errors", type=int, dest="target_errors")
    p.add_argument("--comp-samples", type=int, dest="comp_samples")
    p.add_argument("--code-file", dest="code_file")
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--output")


def _overrides_from(args: argparse.Namespace) -> dict:
    keys = (
        "mode", "family", "M", "constellation_file", "demapper", "samples",
        "target_errors", "comp_samples", "code_file", "max_iters",
        "seed", "workers", "output",
    )
    ov = {k: getattr(args, k, None) for k in keys}
    if args.psnr:
        parts = args.psnr.split(":")
        if len(parts) != 3:
            raise ConfigError(f"--psnr expects start:stop:step, got {args.psnr!r}")
        try:
            start, stop, step = (float(x) for x in parts)
        except ValueError as exc:
            raise ConfigError(f"--psnr expects numbers, got {args.psnr!r}") from exc
        ov.update(psnr_start=start, psnr_stop=stop, psnr_step=step)
    return {k: v for k, v in ov.items() if v is not None}


def _cmd_run(args) -> int:
    cfg = parse_config(args.config, _overrides_from(args))
    records = run(cfg)
    if cfg.mode == "scatter":
        print(f"wrote scatter dump to {cfg.output}")
    elif cfg.mode == "complexity":
        for r in records:
            print(f"M={cfg.M} {r.demapper}: {r.value:g} distance evals/symbol")
    else:
        print(f"wrote {len(records)} records to {cfg.output}")
    return 0


def _cmd_gray_check(args) -> int:
    c = _build_constellation(args)
    report = gray_check(c)
    if report.passed:
        print(f"{c.name}: Gray labeling OK ({c.M} points)")
    else:
        print(f"{c.name}: {len(report.violations)} Gray violations, first: {report.violations[0]}")
    return 0


def _cmd_constellation(args) -> int:
    if args.action != "export":
        raise ConfigError(f"unknown constellation action {args.action!r}")
    c = _build_constellation(args)
    if args.peak_normalize:
        c = normalize_peak(c)
    save_constellation(c, args.output)
    print(f"wrote {c.name} ({c.M} points) to {args.output}")
    return 0


def _build_constellation(args):
    family = args.family or "qci"
    if family == "file":
        if not args.constellation_file:
            raise ConfigError("family 'file' requires --constellation-file")
        return load_constellation(args.constellation_file)
    M = args.M or 16
    if family == "pam":
        return build_pam(M)
    if family == "qam":
        return build_qam(M)
    if family == "qci":
        return build_qci(M)
    raise ConfigError(f"unknown family {family!r}")


def _run_into_one_csv(cfgs, path: Path) -> None:
    """Run each config in turn and write all their records to the CSV at ``path``."""
    tmp = path.with_name("_tmp_" + path.name)
    records = [r for cfg in cfgs for r in run(replace(cfg, output=str(tmp)))]
    tmp.unlink(missing_ok=True)
    write_records_csv(records, path)


def _cmd_make_figures(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    sizes = [int(s) for s in args.sizes.split(",")]
    base = SimConfig(mode="gmi", samples=args.samples, seed=args.seed,
                     workers=args.workers or 0, psnr_step=args.step)

    for M in sizes:
        if M not in DEFAULT_FIGURE_WINDOWS:
            raise ConfigError(f"no default PSNR window for M={M}")
        lo, hi = DEFAULT_FIGURE_WINDOWS[M]
        common = replace(base, M=M, psnr_start=lo, psnr_stop=hi)
        for figure, curves in (
            ("ber_analogue", [("qam", "qam_decomposed"), ("qci", "qci_lcd"), ("qci", "exact2d")]),
            ("iq_loss", [("qci", "qci_lcd"), ("qci", "qci_remapped_2d")]),
        ):
            _run_into_one_csv([replace(common, family=f, demapper=k) for f, k in curves],
                              outdir / f"fig_{figure}_gmi_m{M}.csv")

    scatter_cfg = SimConfig(mode="scatter", family="qci", M=sizes[0],
                            psnr_start=args.scatter_psnr, psnr_stop=args.scatter_psnr,
                            samples=20_000, seed=args.seed,
                            output=str(outdir / f"fig_scatter_m{sizes[0]}.csv"))
    run(scatter_cfg)

    if args.with_coded:
        lo, hi = DEFAULT_FIGURE_WINDOWS[sizes[0]]
        coded = SimConfig(mode="coded_ber", M=sizes[0], psnr_start=lo + 1.0, psnr_stop=hi,
                          psnr_step=0.5, seed=args.seed, workers=args.workers or 0)
        _run_into_one_csv([replace(coded, family=f, demapper=k)
                           for f, k in (("qam", "qam_decomposed"), ("qci", "qci_lcd"))],
                          outdir / f"fig_coded_ber_m{sizes[0]}.csv")

    _write_plot_script(outdir)
    print(f"figure CSVs written to {outdir}")
    return 0


def _write_plot_script(outdir: Path) -> None:
    script = '''\
"""Plot the figure CSVs in this directory (requires matplotlib)."""
import csv
from collections import defaultdict
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).parent
for csv_path in sorted(here.glob("fig_*_m*.csv")):
    if "scatter" in csv_path.name:
        continue
    curves = defaultdict(list)
    with open(csv_path) as fh:
        for row in csv.DictReader(fh):
            key = f"{row['constellation']}/{row['demapper']}"
            curves[key].append((float(row["psnr_db"]), float(row["value"]), row["metric"]))
    fig, ax = plt.subplots()
    logy = False
    for key, pts in curves.items():
        pts.sort()
        xs, ys, metrics = zip(*pts)
        logy = metrics[0] in ("ber", "fer")
        ax.plot(xs, ys, marker="o", label=key)
    if logy:
        ax.set_yscale("log")
        ax.set_ylabel("BER")
    else:
        ax.set_ylabel("GMI [bits/symbol]")
    ax.set_xlabel("PSNR [dB]")
    ax.grid(True, which="both", alpha=0.3)
    ax.legend()
    fig.savefig(csv_path.with_suffix(".png"), dpi=150)
    plt.close(fig)

for csv_path in sorted(here.glob("fig_scatter_m*.csv")):
    if "_centers" in csv_path.name:
        continue
    xs, ys = [], []
    with open(csv_path) as fh:
        rows = [ln for ln in fh if not ln.startswith("#")]
    for row in csv.DictReader(rows):
        xs.append(float(row["z_u"]))
        ys.append(float(row["z_v"]))
    fig, ax = plt.subplots(figsize=(6, 6))
    ax.scatter(xs, ys, s=2, alpha=0.3)
    ax.set_xlabel("u")
    ax.set_ylabel("v")
    ax.set_title("inverse-map output")
    fig.savefig(csv_path.with_suffix(".png"), dpi=150)
    plt.close(fig)
print("plots written next to the CSVs")
'''
    (outdir / "plot_figures.py").write_text(script)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qcilink",
                                description="link-level simulations for disc-shaped QAM-isomorphic constellations")
    sub = p.add_subparsers(dest="command", required=True)

    for name, mode, help_ in (
        ("sweep", "uncoded_ber", "uncoded or coded BER vs PSNR"),
        ("gmi", "gmi", "GMI vs PSNR"),
        ("scatter", "scatter", "dump the inverse-map scatter diagnostics"),
        ("complexity", "complexity", "distance evaluations per symbol by demapper"),
    ):
        rp = sub.add_parser(name, help=help_)
        _add_run_flags(rp)
        rp.set_defaults(func=_cmd_run, mode=mode)
        if name == "sweep":
            rp.add_argument("--coded", dest="mode", action="store_const", const="coded_ber",
                            help="run the LDPC-coded chain")

    gcp = sub.add_parser("gray-check", help="verify nearest-neighbor Gray labeling")
    gcp.add_argument("--family", choices=("pam", "qam", "qci", "file"), default="qci")
    gcp.add_argument("--M", type=int, default=16)
    gcp.add_argument("--constellation-file", dest="constellation_file")
    gcp.set_defaults(func=_cmd_gray_check)

    cep = sub.add_parser("constellation", help="constellation utilities")
    cep.add_argument("action", choices=("export",))
    cep.add_argument("--family", choices=("pam", "qam", "qci", "file"), default="qci")
    cep.add_argument("--M", type=int, default=16)
    cep.add_argument("--constellation-file", dest="constellation_file")
    cep.add_argument("--peak-normalize", action="store_true")
    cep.add_argument("--output", required=True)
    cep.set_defaults(func=_cmd_constellation)

    mfp = sub.add_parser("make-figures", help="emit per-figure CSVs and a plot script")
    mfp.add_argument("--outdir", default="figures")
    mfp.add_argument("--sizes", default="16,64,256", help="comma-separated constellation sizes")
    mfp.add_argument("--samples", type=int, default=200_000)
    mfp.add_argument("--step", type=float, default=0.25)
    mfp.add_argument("--scatter-psnr", type=float, default=13.0)
    mfp.add_argument("--seed", type=int, default=1)
    mfp.add_argument("--workers", type=int, default=0)
    mfp.add_argument("--with-coded", action="store_true",
                     help="also run the (slow) coded-BER comparison for the first size")
    mfp.set_defaults(func=_cmd_make_figures)

    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
