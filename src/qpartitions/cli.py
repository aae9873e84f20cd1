"""Command-line front end: sequences, identity verification, expressions.

Exit codes: 0 success (all verified), 1 an identity refuted, 2 usage or
evaluation error (or an identity skipped), 3 a fault while an identity's
grid ran (its report has status ``error``; ``verify all`` goes on to the
next identity).  The largest code of a run wins.  JSON output renders
counts as decimal strings so arbitrary-precision values survive any
consumer.
"""

from __future__ import annotations

import argparse
import os
import sys

# Each command imports the modules it runs inside its handler, so a cold
# child loads only those; the names are read from their module at call time.

ENV_ORDER = "QPARTITIONS_ORDER"

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_FAULT = 3


# ----------------------------------------------------------------------
# sequence families
# ----------------------------------------------------------------------

# family -> (required params, counter(enumeration module, params, n))
_FAMILIES = {
    "p": ((), lambda en, p, n: en.count_p(n)),
    "p_diff": (("t",), lambda en, p, n: en.count_p_fixed_diff(n, p["t"])),
    "a": (("m",), lambda en, p, n: en.count_a(p["m"], n)),
    "a_diff": (("m", "t"), lambda en, p, n: en.count_a_diff(p["m"], n, p["t"])),
    "Q": (("l", "k"), lambda en, p, n: en.count_Q(p["l"], p["k"], n, p["convention"])),
    "p_star": (("m",), lambda en, p, n: en.count_p_star(p["m"], n)),
    "pbar": ((), lambda en, p, n: en.count_pbar(n)),
    "pbar_diff": (("t",), lambda en, p, n: en.count_pbar_diff(n, p["t"])),
    "abar": (("m",), lambda en, p, n: en.count_abar(p["m"], n)),
    "abar_diff": (("m", "t"), lambda en, p, n: en.count_abar_diff(p["m"], n, p["t"])),
    "ubar": ((), lambda en, p, n: en.count_ubar(n)),
    "breg": (("l",), lambda en, p, n: en.count_breg(p["l"], n)),
    "breg_diff": (("l", "t"), lambda en, p, n: en.count_breg_diff(p["l"], n, p["t"])),
    "areg": (("m", "l"), lambda en, p, n: en.count_areg(p["m"], p["l"], n)),
    "areg_diff": (("m", "l", "t"),
                  lambda en, p, n: en.count_areg_diff(p["m"], p["l"], n, p["t"])),
}


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _emit_rows(rows, header, fmt):
    # rows: list of (key, value) pairs; values already stringified
    if fmt == "csv":
        print(",".join(header))
        for k, v in rows:
            print(f"{k},{v}")
    elif fmt == "json":
        import json

        for k, v in rows:
            print(json.dumps({header[0]: k, header[1]: v}))
    else:
        for k, v in rows:
            print(f"{k:>8}  {v}")


def _cmd_seq(args) -> int:
    family = args.family
    if family not in _FAMILIES:
        return _usage_error(
            f"unknown family {family!r}; choose from {', '.join(sorted(_FAMILIES))}"
        )
    required, counter = _FAMILIES[family]
    params = {"m": args.m, "l": args.l, "k": args.k, "t": args.t,
              "convention": args.convention}
    missing = [name for name in required if params[name] is None]
    if missing:
        return _usage_error(
            f"family {family!r} needs --{' --'.join(missing)}"
        )
    if args.frm > args.to:
        return _usage_error("--from must not exceed --to")
    from . import enumeration as en

    try:
        # largest n first, so an enumeration counter sweeps once (twice
        # with a fixed difference when --to is twice the difference, whose
        # read goes to the (2n, n) family key; see enumeration._HistCache);
        # printed in ascending order
        rows = [(n, str(counter(en, params, n))) for n in range(args.to, args.frm - 1, -1)]
    except ValueError as exc:
        return _usage_error(str(exc))
    rows.reverse()
    _emit_rows(rows, ("n", "value"), args.format)
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def _report_lines(report, fmt):
    if fmt == "json":
        import json

        return [json.dumps(report.to_json_dict())]
    if fmt == "csv":
        return [
            f"{report.identity},{report.status},{report.points},"
            f"{len(report.counterexamples)},{report.seconds:.3f}"
        ]
    lines = [
        f"{report.identity}: {report.status} "
        f"({report.points} points, {report.seconds:.2f}s)"
        + (f" [{report.reason}]" if report.reason else "")
    ]
    shown = report.counterexamples[:5]
    for ce in shown:
        params = ", ".join(f"{k}={v}" for k, v in ce["params"].items())
        lines.append(f"    counterexample {params}: lhs={ce['lhs']} rhs={ce['rhs']}")
    hidden = len(report.counterexamples) - len(shown)
    if hidden > 0:
        lines.append(f"    ... and {hidden} more")
    return lines


def _cmd_verify(args) -> int:
    from .identities import registry, verify

    known = [ident.id for ident in registry()]
    if "all" in args.ids and args.ids != ["all"]:
        return _usage_error("'all' must stand alone, not with other identity ids")
    ids = known if args.ids == ["all"] else args.ids
    unknown = [i for i in ids if i not in known]
    if unknown:
        return _usage_error(f"unknown identity id(s): {', '.join(unknown)}")

    if args.format == "csv":
        print("identity,status,points,counterexamples,seconds")
    exit_code = EXIT_OK
    for identity_id in ids:
        report = verify(identity_id, to=args.to, order=args.order,
                        include_nondivisible=args.include_nondivisible)
        for line in _report_lines(report, args.format):
            print(line)
        if report.status == "refuted":
            exit_code = max(exit_code, EXIT_REFUTED)
        elif report.status == "skipped":
            exit_code = max(exit_code, EXIT_USAGE)
        elif report.status == "error":
            exit_code = max(exit_code, EXIT_FAULT)
    return exit_code


# ----------------------------------------------------------------------
# series
# ----------------------------------------------------------------------


def _cmd_series(args) -> int:
    order, source = args.order, "--order"
    if order is None:
        source = f"${ENV_ORDER}"
        try:
            order = int(os.environ.get(ENV_ORDER, "10"))
        except ValueError:
            return _usage_error(
                f"{source} must be an integer, not {os.environ[ENV_ORDER]!r}"
            )
    if order < 1:
        return _usage_error(f"{source} must be at least 1")
    from .dsl import DslEvalError, DslSyntaxError, eval_text

    try:
        result = eval_text(args.expr, order)
    except (DslSyntaxError, DslEvalError) as exc:
        return _usage_error(str(exc))
    rows = [(e, str(result.coeff(e))) for e in range(result.min_exp, result.trunc_order)]
    _emit_rows(rows, ("exp", "coeff"), args.format)
    return EXIT_OK


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "csv", "json"),
                        default="table", help="output format")

    parser = argparse.ArgumentParser(
        prog="qpartitions",
        description="Partition counting, q-series evaluation, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seq = sub.add_parser("seq", parents=[common],
                         help="print a counting-function sequence")
    seq.add_argument("family", help=f"one of: {', '.join(sorted(_FAMILIES))}")
    seq.add_argument("--m", type=int, default=None, help="smallest-part multiplicity bound")
    seq.add_argument("--l", type=int, default=None, help="regularity modulus / difference")
    seq.add_argument("--k", type=int, default=None, help="smallest-part value for Q")
    seq.add_argument("--t", type=int, default=None, help="largest-smallest difference")
    seq.add_argument("--convention", choices=("at_least", "exactly"),
                     default="at_least", help="Q smallest-part convention")
    seq.add_argument("--from", dest="frm", type=int, required=True)
    seq.add_argument("--to", dest="to", type=int, required=True)

    ver = sub.add_parser("verify", parents=[common],
                         help="verify registered identities")
    ver.add_argument("ids", nargs="+", help="identity ids, or 'all'")
    ver.add_argument("--to", type=int, default=None, help="override the n range")
    ver.add_argument("--order", type=int, default=None,
                     help="override the series comparison order")
    ver.add_argument("--include-nondivisible", action="store_true",
                     help="drop the divisibility hypothesis of reg_div")

    ser = sub.add_parser("series", parents=[common],
                         help="evaluate a q-series expression")
    ser.add_argument("expr", help="expression, e.g. '1/poch(q;1;inf)'")
    ser.add_argument("--order", type=int, default=None,
                     help=f"truncation order (default ${ENV_ORDER} or 10)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    if args.command == "seq":
        return _cmd_seq(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_series(args)


if __name__ == "__main__":
    sys.exit(main())
