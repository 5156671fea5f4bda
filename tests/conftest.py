import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the shared oracles module

from qcilink import load_alist, qam_context, qci_context


@pytest.fixture(scope="session")
def toy_alist():
    """The 48-bit PEG code of tools/generate_bundled_code.py (checked in test_code_tool.py)."""
    return Path(__file__).parent / "peg_dv3_n48.alist"


@pytest.fixture
def rank_deficient_alist(tmp_path):
    """A well-formed alist whose first two checks coincide, so no systematic encoder exists."""
    path = tmp_path / "rank_deficient.alist"
    path.write_text("4 3\n2 2\n2 2 1 1\n2 2 2\n1 2\n1 2\n3 0\n3 0\n1 2\n1 2\n3 4\n")
    return path


@pytest.fixture(scope="session")
def toy_code(toy_alist):
    return load_alist(toy_alist)


@pytest.fixture(scope="session")
def qam16_ctx():
    return qam_context(16)


@pytest.fixture(scope="session")
def qci16_ctx():
    return qci_context(16)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
