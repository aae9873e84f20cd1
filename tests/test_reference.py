"""Replay the benchmark's recorded outputs in the unit suite.

``perfbench/reference.json`` holds a digest of every command the benchmark
runs; a row that changes fails here before the benchmark is ever run.  The
``seq`` entries, the two DSL powers and the serieswise identities at order
60 are replayed through ``cli.main`` in process, and compared with
``perfbench/check.py``'s ``canonical``.  Both
files are only read: the checker is executed from its source, so no
bytecode cache is written beside it.
"""

import json
import types
from pathlib import Path

import pytest

from qpartitions import enumeration as en
from qpartitions.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
POWERS = ("series poch(q;1;inf)^3 --order 1500", "series poch(-q;1;inf)^2 --order 1000")
SERIESWISE = "verify cauchy cauchy_cor heine heine2 qbinthm --order 60"
REPLAYED = sorted(k for k in REFERENCE if k.startswith("seq ")) + list(POWERS) + [SERIESWISE]


def _load_check():
    source = (PERFBENCH / "check.py").read_text()
    module = types.ModuleType("perfbench_check")
    exec(compile(source, str(PERFBENCH / "check.py"), "exec"), module.__dict__)
    return module


check = _load_check()


@pytest.fixture(scope="module", autouse=True)
def cold_cache():
    en._hists.clear()
    yield
    en._hists.clear()


@pytest.mark.parametrize("key", REPLAYED)
def test_replays_recorded_output(key, capsys):
    argv = key.split()
    if argv[0] == "verify":
        argv += ["--format", "json"]
    assert check.key(argv) == key
    code = main(argv)
    out = capsys.readouterr().out
    want = REFERENCE[key]
    assert code == want["exit"]
    assert check.canonical(argv, out) == want["output"]
