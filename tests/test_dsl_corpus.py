"""Replay a recorded corpus of DSL inputs against the parser and evaluator.

Each record of ``data/dsl_corpus.jsonl`` holds an input text and what the
language made of it: the canonical text and the series at orders 3 and 9
(or the exception's class and message), or, for a syntax error, its
message, line, column and expected set.  Run this file as a script to
re-record the corpus::

    PYTHONPATH=src python tests/test_dsl_corpus.py
"""

import json
import random
from pathlib import Path

from qpartitions.dsl import DslSyntaxError, evaluate, format_ast, parse

CORPUS = Path(__file__).with_name("data") / "dsl_corpus.jsonl"
ORDERS = (3, 9)

# The inputs of test_dsl.py, plus edge cases for each parser branch.
HAND_INPUTS = (
    "1/poch(q;1;inf)", "q^-2 * (1+q)", "qbin(4,2)", "-q^2", "poch(-2*q^3;2;5)",
    "poch(0;1;inf)", "poch(q;;3)", "1+", "(1+q", "1+q\n* *2", "poch(q;0;3)",
    "2 @ 3", "1+q q", "(1-q)/(1-q)", "poch(q;1;3)", "1/(2+q)", "1/(q-q)",
    "1/poch(2;1;inf)", "q^-3 * 1/poch(q;1;inf)", "poch(-q;1;3)",
    "poch(2*q^3;2;inf)", "(1+q)^3", "1-q+2*q^2", "q^-1+3", "qbin(5,2)",
    "", "   ", ")", "1 2", "q^", "q^-", "q^2^3", "--q", "-(-q)", "foo",
    "poch(", "poch(q;1;x)", "poch(3*x;1;2)", "poch(q^0;1;2)", "poch(q;1;inf",
    "poch(q;1;-1)", "poch(-3;1;2)", "poch(0*q;1;2)", "poch(-0;1;inf)",
    "poch(q^2;3;4)", "poch(-q;2;inf)^-2", "qbin(1,)", "qbin(-1,2)", "qbin(3,-1)",
    "qbin(3,5)", "qbin(0,0)", "qbin(-2,-3)", "qbin 4,2", "(1+q)\n^\n2",
    "\t1 +\n q", "1\n+\n@", "1/q^5", "q^-5", "1/(1+q)^-2", "0^-1", "0^0",
    "poch(q;1;0)", "(q-1)^-3", "2/2", "3*q/(1-q)^2", "q*q^-1", "q^-2*q^-3",
    "1/(q^2+q^3)", "(1/q)^2", "1/(q^-1+q)", "poch(q;1;inf)*q^-4",
)


def _generated():
    from dsl_gen import rand_ast

    rng = random.Random(20261019)
    return [format_ast(rand_ast(rng, rng.randint(0, 4))) for _ in range(300)]


def _value(ast, order):
    try:
        s = evaluate(ast, order)
    except ValueError as exc:  # the class and message are what is pinned
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"min_exp": s.min_exp, "coeffs": list(s.coeffs), "trunc_order": s.trunc_order}


def _observe(text):
    try:
        ast = parse(text)
    except DslSyntaxError as exc:
        return {"text": text, "syntax": {"message": str(exc), "line": exc.line,
                                         "col": exc.col, "expected": sorted(exc.expected)}}
    out = {"text": text, "canonical": format_ast(ast)}
    for order in ORDERS:
        out[str(order)] = _value(ast, order)
    return out


def test_corpus_replays():
    records = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    assert len(records) == len(HAND_INPUTS) + 300
    for rec in records:
        assert _observe(rec["text"]) == rec, rec["text"]


if __name__ == "__main__":
    lines = [json.dumps(_observe(t), separators=(",", ":"))
             for t in (*HAND_INPUTS, *_generated())]
    CORPUS.write_text("\n".join(lines) + "\n")
