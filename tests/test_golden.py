"""Byte-for-byte comparison of the CLI outputs with tests/golden."""

import runpy
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
regen = runpy.run_path(str(GOLDEN / "regen.py"))


def test_outputs_match_golden(tmp_path):
    regen["generate"](tmp_path)
    expected = regen["golden_files"](GOLDEN)
    assert regen["golden_files"](tmp_path) == expected
    for rel in expected:
        assert (tmp_path / rel).read_bytes() == (GOLDEN / rel).read_bytes(), str(rel)
