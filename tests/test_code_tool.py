"""Tests of the code-construction tool, tools/generate_bundled_code.py."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from generate_bundled_code import build_peg_code, save_alist  # noqa: E402

from qcilink import load_alist  # noqa: E402


class TestPegConstruction:
    def test_deterministic_given_seed(self):
        a = build_peg_code(48, 24, 3, seed=2)
        b = build_peg_code(48, 24, 3, seed=2)
        assert [list(x) for x in a.check_lists] == [list(x) for x in b.check_lists]

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            build_peg_code(10, 0, 3)
        with pytest.raises(ValueError):
            build_peg_code(10, 5, 1)

    def test_committed_toy_alist_matches_the_tool(self, toy_alist, tmp_path):
        path = tmp_path / "toy.alist"
        save_alist(build_peg_code(48, 24, 3, seed=0), path)
        assert path.read_bytes() == toy_alist.read_bytes()


class TestAlistIo:
    def test_round_trip_preserves_adjacency(self, toy_code, tmp_path):
        path = tmp_path / "toy.alist"
        save_alist(toy_code, path)
        loaded = load_alist(path)
        assert loaded.n == toy_code.n and loaded.num_checks == toy_code.num_checks
        assert [list(x) for x in loaded.check_lists] == [list(x) for x in toy_code.check_lists]

    def test_consistent_with_declared_dims(self, toy_code, tmp_path):
        path = tmp_path / "toy.alist"
        save_alist(toy_code, path)
        head = path.read_text().splitlines()[0].split()
        assert head == ["48", "24"]
