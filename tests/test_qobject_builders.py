"""Replay the q-object builders on a grid of good and bad arguments.

Each record of ``data/qobject_builders.jsonl`` holds one call of
``poch_finite``, ``poch_finite_window``, ``poch_infinite``, ``qbin`` or
``multi_poch_infinite`` and what it gave: the value as (min_exp, coeffs,
trunc_order, exact), or the exception's class and message.  The grid
crosses bad steps, lengths, orders (negative ones included) and upper and
lower indices with zero, constant and positive-exponent parameters.

The records were taken before the Pochhammer products and Gaussian
binomials were built by one loop each.  Two groups of rows have changed
since, on purpose, and ``_declared`` gives their outcome today:

- ``poch_finite_window`` with n < 0 (and a valid step) raises, where it
  returned the empty product;
- ``multi_poch_infinite`` checks its step and order even with no
  parameters, where it returned 1 or failed on building the 1.

Every other row must replay exactly.
"""

import json
from pathlib import Path

import pytest

from qpartitions.qobjects import (
    Monomial,
    multi_poch_infinite,
    poch_finite,
    poch_finite_window,
    poch_infinite,
    qbin,
)

RECORDS = Path(__file__).with_name("data") / "qobject_builders.jsonl"
BUILDERS = {f.__name__: f for f in (
    poch_finite, poch_finite_window, poch_infinite, qbin, multi_poch_infinite)}
MONOMIALS = ([0, 0], [1, 0], [2, 0], [1, 1], [-2, 2])
STEPS = (-1, 0, 1, 2)
LENGTHS = (-2, -1, 0, 3)
ORDERS = (-2, -1, 0, 1, 4)
PARAM_LISTS = ([], [[0, 0]], [[1, 1]], [[1, 0]], [[1, 1], [-1, 2]])


def _calls():
    for a in MONOMIALS:
        for step in STEPS:
            for n in LENGTHS:
                yield "poch_finite", [a, step, n]
                for order in ORDERS:
                    yield "poch_finite_window", [a, step, n, order]
            for order in ORDERS:
                yield "poch_infinite", [a, step, order]
    for a in (-3, -1, 0, 2, 5):
        for b in (-3, -1, 0, 1, 2, 5, 7):
            yield "qbin", [a, b]
    for params in PARAM_LISTS:
        for step in STEPS:
            for order in ORDERS:
                yield "multi_poch_infinite", [params, step, order]


def _outcome(call, args):
    def mono(pair):
        return Monomial(*pair)

    if call == "qbin":
        real = args
    elif call == "multi_poch_infinite":
        real = [[mono(p) for p in args[0]], *args[1:]]
    else:
        real = [mono(args[0]), *args[1:]]
    try:
        s = BUILDERS[call](*real)
    except ValueError as exc:  # the class and message are what is pinned
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"min_exp": s.min_exp, "coeffs": list(s.coeffs),
            "trunc_order": s.trunc_order, "exact": s.exact}


def _declared(call, args):
    # today's outcome of a row that changed on purpose, else None
    if call == "poch_finite_window" and args[1] >= 1 and args[2] < 0:
        return {"error": "ValueError", "message": "finite product length must be non-negative"}
    if call == "multi_poch_infinite":
        params, step, order = args
        if step < 1 and (order < 1 or not params):
            return {"error": "ValueError", "message": "step must be a positive integer"}
        if order < 1:
            return {"error": "WindowError", "message": "order must be at least 1"}
    return None


def _records():
    with RECORDS.open() as fh:
        return [json.loads(line) for line in fh]


def test_records_cover_the_grid():
    assert [(r["call"], r["args"]) for r in _records()] == list(_calls())


@pytest.mark.parametrize("call", sorted(BUILDERS))
def test_builders_replay_their_records(call):
    for record in _records():
        if record["call"] != call:
            continue
        args = record["args"]
        declared = _declared(call, args)
        if declared is not None:
            # a declared row really changed: the record keeps the old outcome
            assert record["outcome"] != declared, args
        assert _outcome(call, args) == (declared or record["outcome"]), args
