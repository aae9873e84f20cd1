"""Run the planted faults of ``tests/data/mutants.json`` against the tests.

Usage: python tests/mutants.py [ID ...]

Each mutant names a file under the repository root, an exact old text that
occurs once in it, the new text that replaces it, and the pytest selection
expected to fail on it.  The script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, applies each mutant alone (all
of them, or the given ids), runs its selection there with ``-x`` and no
bytecode cache, and prints one line per mutant.  It exits 1 if a mutant
survived, could not be applied, or made pytest stop on an error rather than
a test failure.  pytest does not collect this file; ``test_mutants.py``
checks the data.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data" / "mutants.json"
COPIED = ("src", "tests", "pyproject.toml")


def load_mutants() -> list[dict]:
    return json.loads(DATA.read_text())


def run_mutant(mutant: dict, tree: Path) -> str:
    path = tree / mutant["file"]
    original = path.read_text()
    if original.count(mutant["old"]) != 1:
        return "not applied: the old text does not occur exactly once"
    path.write_text(original.replace(mutant["old"], mutant["new"]))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant["select"]],
            cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    finally:
        path.write_text(original)
    if proc.returncode == 1:
        return "caught"
    if proc.returncode == 0:
        return "survived"
    return f"pytest exit {proc.returncode}: " + proc.stdout.strip().splitlines()[-1]


def main(ids: list[str]) -> int:
    mutants = load_mutants()
    unknown = set(ids) - {m["id"] for m in mutants}
    if unknown:
        print("unknown mutant ids:", ", ".join(sorted(unknown)))
        return 2
    chosen = [m for m in mutants if not ids or m["id"] in ids]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
            else:
                shutil.copy2(src, tree / name)
        for mutant in chosen:
            start = time.perf_counter()
            outcome = run_mutant(mutant, tree)
            bad += outcome != "caught"
            print(f"{mutant['id']}: {outcome} in {time.perf_counter() - start:.1f} s"
                  f" by {' '.join(mutant['select'])}", flush=True)
    print(f"{len(chosen)} mutants: {len(chosen) - bad} caught, {bad} not caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
