import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qpartitions import enumeration as en
from qpartitions.cli import main
from qpartitions.series import WindowError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_a_table(capsys):
    code, out, _ = run_cli(capsys, "seq", "a", "--m", "2", "--from", "1", "--to", "5")
    assert code == 0
    values = [line.split()[1] for line in out.strip().splitlines()]
    assert values == ["0", "1", "1", "3", "3"]


def test_seq_pbar(capsys):
    code, out, _ = run_cli(capsys, "seq", "pbar", "--from", "0", "--to", "4")
    assert code == 0
    values = [line.split()[1] for line in out.strip().splitlines()]
    assert values == ["1", "2", "4", "8", "14"]


def test_seq_p_negative_start_json(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "p", "--from", "-1", "--to", "3", "--format", "json"
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [(r["n"], r["value"]) for r in rows] == [
        (-1, "0"), (0, "1"), (1, "1"), (2, "2"), (3, "3")
    ]


def test_seq_csv_header(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "breg", "--l", "2", "--from", "1", "--to", "4",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value"
    assert lines[1:] == ["1,1", "2,1", "3,2", "4,2"]


def test_seq_usage_errors(capsys):
    code, _, err = run_cli(capsys, "seq", "nosuch", "--from", "1", "--to", "2")
    assert code == 2 and "unknown family" in err
    code, _, err = run_cli(capsys, "seq", "a", "--from", "1", "--to", "2")
    assert code == 2 and "--m" in err
    code, _, err = run_cli(capsys, "seq", "p", "--from", "5", "--to", "1")
    assert code == 2


def test_seq_Q_conventions(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "Q", "--l", "2", "--k", "3", "--from", "10", "--to", "10"
    )
    assert code == 0 and out.split()[-1] == "2"
    code, out, _ = run_cli(
        capsys, "seq", "Q", "--l", "2", "--k", "3", "--convention", "exactly",
        "--from", "10", "--to", "10",
    )
    assert code == 0 and out.split()[-1] == "1"


def test_verify_single(capsys):
    code, out, _ = run_cli(capsys, "verify", "prop2")
    assert code == 0
    assert out.startswith("prop2: verified (25 points")


def test_verify_refuted_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "remark7", "--to", "6")
    assert code == 1
    assert "remark7: refuted" in out
    assert "counterexample" in out


def test_verify_unknown_id(capsys):
    code, _, err = run_cli(capsys, "verify", "wat")
    assert code == 2 and "unknown identity" in err


def test_verify_all_must_stand_alone(capsys):
    for ids in (("all", "prop1"), ("prop1", "all")):
        code, out, err = run_cli(capsys, "verify", *ids, "--to", "4")
        assert code == 2 and out == ""
        assert err == "error: 'all' must stand alone, not with other identity ids\n"


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "prop2", "prop3", "--format", "json", "--to", "8"
    )
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["identity"] for r in reports] == ["prop2", "prop3"]
    for r in reports:
        assert set(r) == {
            "identity", "grid", "status", "points", "counterexamples",
            "seconds", "reason",
        }


def test_verify_all_reduced_grid(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "all", "--to", "6", "--order", "12"
    )
    assert code == 1  # remark7 refutes even on the reduced grid
    status_lines = [l for l in out.splitlines() if not l.startswith(" ")]
    assert len(status_lines) == 23
    ids = [l.split(":")[0] for l in status_lines]
    from qpartitions.identities import registry

    assert ids == [ident.id for ident in registry()]


def test_verify_all_on_empty_grids_is_skipped(capsys):
    # n <= 0 and order 1 leave every countwise grid and most serieswise
    # ones empty; none of those may read as verified, remark7 least of all
    code, out, _ = run_cli(capsys, "verify", "all", "--to", "0", "--order", "1",
                           "--format", "json")
    assert code == 2
    reports = [json.loads(line) for line in out.splitlines()]
    assert len(reports) == 23
    assert not [r["identity"] for r in reports if r["status"] == "verified" and not r["points"]]
    remark7 = next(r for r in reports if r["identity"] == "remark7")
    assert (remark7["status"], remark7["reason"]) == ("skipped", "the grid has no points")


@pytest.mark.parametrize("fault, reason", [
    (WindowError("exponent 59 outside known window [1, 59)"),
     "WindowError: exponent 59 outside known window [1, 59)"),
    (ZeroDivisionError("division by zero"), "ZeroDivisionError: division by zero"),
], ids=["window", "zero-division"])
def test_verify_fault_exits_3_and_all_goes_on(capsys, monkeypatch, fault, reason):
    # a fault is neither a refutation (1) nor a skip (2), and the entries
    # after it are still checked and reported
    from qpartitions import identities

    def points(bound, incl):
        raise fault
        yield

    stub = identities.Identity("stub", "countwise", "s", 5, lambda bound, incl: f"n <= {bound}",
                               points, lambda bound: (None, None))
    monkeypatch.setattr(identities, "_REGISTRY", [stub, identities.get_identity("remark7")])
    code, out, _ = run_cli(capsys, "verify", "all", "--to", "6", "--format", "json")
    assert code == 3  # the largest code wins over remark7's refutation
    reports = [json.loads(line) for line in out.splitlines()]
    assert [(r["identity"], r["status"], r["points"], r["reason"]) for r in reports] == [
        ("stub", "error", 0, reason), ("remark7", "refuted", 6, "")]
    assert reports[0]["grid"] == "n <= 6" and reports[0]["counterexamples"] == []
    code, out, _ = run_cli(capsys, "verify", "stub", "--to", "4")
    assert code == 3
    assert out.startswith("stub: error (0 points, ") and out.endswith(f"s) [{reason}]\n")


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("argv, recorded", [
    (("all", "--to", "6", "--order", "12"), "verify_all_to6_order12.jsonl"),
    (("reg_div", "--to", "12", "--include-nondivisible"),
     "verify_reg_div_to12_nondivisible.jsonl"),
])
def test_verify_reports_match_recorded(capsys, argv, recorded):
    # every field but seconds, grid text included, as recorded from the
    # runner-per-identity engine this catalog replaced
    code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json")
    assert code == 1
    reports = [json.loads(line) for line in out.splitlines()]
    for r in reports:
        del r["seconds"]
    expected = [json.loads(line) for line in (DATA / recorded).read_text().splitlines()]
    assert reports == expected


def test_series_command(capsys):
    code, out, _ = run_cli(capsys, "series", "1/poch(q;1;inf)", "--order", "6")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert [r[1] for r in rows] == ["1", "1", "2", "3", "5", "7"]

    code, out, _ = run_cli(capsys, "series", "poch(q;1;3)", "--order", "7")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert [r[1] for r in rows] == ["1", "-1", "-1", "0", "1", "1", "-1"]


def test_series_errors(capsys):
    code, _, err = run_cli(capsys, "series", "1/(2+q)", "--order", "5")
    assert code == 2 and "2+q" in err
    code, _, err = run_cli(capsys, "series", "poch(q;;3)", "--order", "5")
    assert code == 2 and "column 8" in err


def test_series_order_one(capsys):
    code, out, _ = run_cli(capsys, "series", "q", "--order", "1")
    assert code == 0 and out.split() == ["0", "0"]
    code, _, err = run_cli(capsys, "series", "1/(q-q)", "--order", "1")
    assert code == 2 and "q-q" in err


def test_series_non_ascii_digit_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "series", "q^\u00b2", "--order", "5")
    assert code == 2 and out == ""
    assert "line 1, column 3: unexpected character" in err


def test_seq_rejects_a_bad_counter_argument(capsys):
    code, out, err = run_cli(capsys, "seq", "a", "--m", "0", "--from", "1", "--to", "6")
    assert code == 2 and out == ""
    assert err == "error: multiplicity bound must be positive\n"


def test_series_env_order(capsys, monkeypatch):
    monkeypatch.setenv("QPARTITIONS_ORDER", "3")
    code, out, _ = run_cli(capsys, "series", "1/poch(q;1;inf)")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_series_env_order_not_an_integer(capsys, monkeypatch):
    # a usage error (exit 2), not a traceback read as "refuted" (exit 1)
    monkeypatch.setenv("QPARTITIONS_ORDER", "abc")
    code, out, err = run_cli(capsys, "series", "1/poch(q;1;inf)")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "QPARTITIONS_ORDER" in err and "'abc'" in err


def test_series_order_below_one_names_its_source(capsys, monkeypatch):
    # the range check blames the flag or the variable the value came from
    monkeypatch.setenv("QPARTITIONS_ORDER", "0")
    code, out, err = run_cli(capsys, "series", "1/poch(q;1;inf)")
    assert code == 2 and out == ""
    assert err == "error: $QPARTITIONS_ORDER must be at least 1\n"
    code, out, err = run_cli(capsys, "series", "1/poch(q;1;inf)", "--order", "0")
    assert code == 2 and out == ""
    assert err == "error: --order must be at least 1\n"


def test_cache_option_and_command_are_gone(capsys):
    # the p(n) cache was retired: no value was ever read from its file
    assert main(["seq", "p", "--from", "0", "--to", "1", "--cache", "p.json"]) == 2
    assert main(["cache", "stat"]) == 2
    assert capsys.readouterr().out == ""


def test_module_entry_point():
    # the child imports the same package as this test, installed or not
    src = str(Path(en.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "qpartitions", "seq", "p", "--from", "0", "--to", "3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert [line.split()[1] for line in proc.stdout.strip().splitlines()] == \
        ["1", "1", "2", "3"]


def _cold_child(code):
    """Run code in a fresh interpreter on this package; return its stdout lines."""
    src = str(Path(en.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cold_import_skips_dataclasses_and_inspect():
    # both cost a cold CLI child about 25 ms of import and generated code
    row, loaded = _cold_child(
        "import sys\n"
        "from qpartitions.cli import main\n"
        "assert main(['seq', 'p', '--from', '0', '--to', '0']) == 0\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    assert row.split() == ["0", "1"] and loaded == "[]"


@pytest.mark.parametrize("argv, unused", [
    (["seq", "p", "--from", "0", "--to", "0"],
     ["identities", "closed_forms", "dsl", "qobjects", "series", "record"]),
    (["series", "1/poch(q;1;inf)", "--order", "5"],
     ["identities", "closed_forms", "enumeration"]),
], ids=["seq", "series"])
def test_cold_child_loads_only_the_modules_its_command_runs(argv, unused):
    # a cold child that runs from source compiles every module it imports
    *_, loaded = _cold_child(
        "import sys\n"
        "from qpartitions.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"print(sorted({{'qpartitions.' + m for m in {unused!r}}} & set(sys.modules)))\n"
    )
    assert loaded == "[]"


def test_commands_read_engine_names_at_call_time(capsys, monkeypatch):
    # perfbench/trace_child.py rebinds module attributes to its wrappers
    import qpartitions.dsl
    import qpartitions.identities

    calls = []

    def spy(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    spy(qpartitions.identities, "verify")
    spy(qpartitions.dsl, "eval_text")
    assert main(["verify", "prop2", "--to", "3"]) == 0
    assert main(["series", "1/poch(q;1;inf)", "--order", "4"]) == 0
    capsys.readouterr()
    assert calls == [("verify", "prop2"), ("eval_text", "1/poch(q;1;inf)")]


def test_usage_exit_code_from_argparse(capsys):
    assert main(["seq"]) == 2  # missing required arguments
    assert main([]) == 2
    assert main(["verify", "prop1", "--jobs", "2"]) == 2  # no such option
