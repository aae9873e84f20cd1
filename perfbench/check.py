"""Output checks: reduce a command's output to what must never change.

For ``verify`` that is, per identity, its id, status, points and
counterexamples; ``seconds``, the grid text and any keys added later are
ignored.  For ``seq`` and ``series`` it is the printed (key, value) rows,
read back from whichever ``--format`` was used and stored as a digest.
"""

from __future__ import annotations

import hashlib
import json

REPORT_KEYS = ("identity", "status", "points", "counterexamples")
COUNTEREXAMPLE_KEYS = ("params", "lhs", "rhs")
ROW_KEYS = {"seq": ("n", "value"), "series": ("exp", "coeff")}


def key(argv) -> str:
    """The reference key of a command: its arguments without ``--format``."""
    argv = list(argv)
    if "--format" in argv:
        i = argv.index("--format")
        del argv[i:i + 2]
    return " ".join(argv)


def _rows(argv, stdout: str) -> list[tuple[str, str]]:
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "table"
    lines = stdout.splitlines()
    if fmt == "csv":
        if lines[0] != ",".join(ROW_KEYS[argv[0]]):
            raise ValueError(f"unexpected csv header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
    elif fmt == "json":
        k, v = ROW_KEYS[argv[0]]
        rows = [(d[k], d[v]) for d in map(json.loads, lines)]
    else:
        rows = [line.split() for line in lines]
    if any(len(row) != 2 for row in rows):
        raise ValueError("a row does not hold exactly one key and one value")
    return [(str(k), str(v)) for k, v in rows]


def canonical(argv, stdout: str):
    """The checked content of one command's output.

    Raises ValueError (or KeyError/IndexError) when the output is malformed.
    """
    if argv[0] == "verify":
        reports = []
        for line in stdout.splitlines():
            d = json.loads(line)
            report = {k: d[k] for k in REPORT_KEYS}
            report["counterexamples"] = [
                {k: ce[k] for k in COUNTEREXAMPLE_KEYS} for ce in d["counterexamples"]
            ]
            reports.append(report)
        return reports
    rows = _rows(argv, stdout)
    text = "\n".join(f"{k} {v}" for k, v in rows)
    return {"rows": len(rows), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def catalog_problems(reports) -> list[str]:
    """The documented verdicts of ``verify all`` at the default grids.

    22 identities verify; remark7 is refuted at n = 2 and every odd n <= 59.
    """
    problems = []
    if len(reports) != 23:
        problems.append(f"{len(reports)} reports instead of 23")
    verified = sum(r["status"] == "verified" for r in reports)
    if verified != 22:
        problems.append(f"{verified} identities verified instead of 22")
    remark7 = [r for r in reports if r["identity"] == "remark7"]
    expected_n = ["2"] + [str(n) for n in range(1, 60, 2)]
    if not remark7 or remark7[0]["status"] != "refuted":
        problems.append("remark7 is not refuted")
    elif sorted(ce["params"]["n"] for ce in remark7[0]["counterexamples"]) != sorted(expected_n):
        problems.append("remark7 counterexamples are not n = 2 and the odd n <= 59")
    return problems
