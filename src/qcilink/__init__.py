"""Link-level simulation toolkit for disc-shaped QAM-isomorphic constellations.

Builds square QAM and its radial disc image with shared Gray labels, runs
them over a peak-power-normalized AWGN channel, and compares exact 2D soft
demapping against the O(sqrt(M)) remap-and-decompose detector, measured by
BER, GMI, and distance-evaluation counters.
"""

from .channel import ChannelSpec, spec_from_psnr, transmit
from .coding import (
    ParityCheckCode,
    bundled_code,
    decode_bp,
    deinterleave,
    encode,
    interleave,
    load_alist,
    save_alist,
)
from .constellation import (
    Constellation,
    GrayReport,
    PowerStats,
    build_pam,
    build_qam,
    build_qci,
    gray_check,
    load_constellation,
    normalize_peak,
    power_stats,
    save_constellation,
)
from .demapper import (
    DEMAPPER_KINDS,
    AffineCompensation,
    DemapContext,
    LlrFrame,
    custom_context,
    demap,
    estimate_affine_compensation,
    llr_exact_2d,
    llr_maxlog_2d,
    llr_pam,
    llr_qam_decomposed,
    llr_qci_lcd,
    llr_qci_remapped_2d,
    qam_context,
    qci_context,
)
from .errors import ConfigError, DataFormatError
from .geometry import radial_forward, radial_inverse
from .harness import SimConfig, parse_config, psnr_grid, run
from .metrics import ScatterDump, SweepRecord, gmi_symbol_scores, horizontal_gap, scatter_dump
from .peg import build_peg_code

__version__ = "0.1.0"
