"""Regenerate the golden CLI outputs that guard refactors byte for byte.

    PYTHONPATH=src python tests/golden/regen.py [OUT_DIR]

OUT_DIR defaults to this directory. ``tests/test_golden.py`` calls
``generate`` into a temporary directory and compares every file with the
committed copy. Regenerate the committed copy only in a change that says
which output moved and why.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

from cohdasim.cli import main

GOLDEN = Path(__file__).resolve().parent
DATA = GOLDEN.parents[1] / "src" / "cohdasim" / "data"

SUBDIRS = ("run", "uncontrolled", "oracle", "sweep")

# (directory name, scenario reference, seed, extra arguments) of every
# golden ``run``. The lossy scenario's trace covers drop and duplicate events.
RUNS = (
    ("toy-2_seed0", "toy-2", 0, ["--trace"]),
    ("toy-2_seed3", "toy-2", 3, ["--trace"]),
    ("small-demo_seed0", "small-demo", 0, []),
    ("small-demo_seed7", "small-demo", 7, []),
    ("toy2_scenario_seed0", str(DATA / "toy2_scenario.yaml"), 0, []),
    ("lossy_scenario_seed0", str(GOLDEN / "lossy_scenario.yaml"), 0, ["--trace"]),
)


def _main(argv: list[str]) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"cohdasim {' '.join(argv)} exited with {code}")
    return stdout.getvalue()


def generate(out: Path) -> None:
    """Write every golden output under ``out``."""
    for name, ref, seed, extra in RUNS:
        run_dir = out / "run" / name
        _main(["run", ref, "--seed", str(seed), "--out", str(run_dir), *extra])
        (run_dir / "timing.json").unlink()  # wall-clock time, not reproducible
    _main(["uncontrolled", "small-demo", "--seed", "0",
           "--out", str(out / "uncontrolled" / "small-demo_seed0")])
    oracle = out / "oracle" / "toy-2.txt"
    oracle.parent.mkdir(parents=True, exist_ok=True)
    oracle.write_text(_main(["oracle", "toy-2"]))
    _main(["sweep", str(DATA / "robustness_design.yaml"),
           "--out", str(out / "sweep" / "robustness_design")])


def golden_files(root: Path) -> list[Path]:
    """Golden outputs under ``root``, relative to it, in a stable order."""
    return sorted(
        p.relative_to(root) for sub in SUBDIRS for p in (root / sub).rglob("*") if p.is_file()
    )


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    for sub in SUBDIRS:
        shutil.rmtree(target / sub, ignore_errors=True)
    generate(target)
    print(f"wrote {len(golden_files(target))} golden files under {target}")
