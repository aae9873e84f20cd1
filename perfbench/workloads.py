"""The CLI commands each workload runs, built from a seed.

A seed picks multiplicity bounds, DSL expressions, output formats and the
order of the commands; it never changes a command's size (``--to``, ``--order`` or the
sweep shape), so every seed does about the same work.  Every command a seed
can produce is in ``pool()``, whose outputs ``record_reference.py`` records
once.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1
FORMATS = ("table", "csv", "json")

CATALOG = ("verify", "all", "--format", "json")

SERIESWISE = ("verify", "cauchy", "cauchy_cor", "heine", "heine2", "qbinthm",
              "--order", "60", "--format", "json")
P_COMBINATIONS = ("verify", "prop1", "thm_a3", "thm_a4", "--to", "800",
                  "--format", "json")

# (expression, order): each entry costs about the same (0.25 s on a quiet
# core of a 2-core Xeon) so that the four a seed picks add up to a steady
# total.
DSL_POOL = (
    ("1/poch(q;1;inf)", 1450),
    ("poch(-q;1;inf)/poch(q;1;inf)", 800),
    ("qbin(40,20)*poch(-q;1;inf)", 900),
    ("1/poch(q^2;1;inf)", 1250),
    ("poch(q;1;inf)^3", 1500),
    ("1/poch(q;2;inf)", 1200),
    ("poch(-q;1;inf)^2", 1000),
    ("qbin(30,15)/poch(q;1;inf)", 1100),
)
DSL_PICKS = 4

# The multiplicity bound m only selects which tallies of a sweep are summed,
# so it leaves the cost about unchanged; the differences t stay fixed.
A_M = range(2, 7)
A_DIFF_M = range(1, 5)


def _seq_rows(m_a: int, m_ad: int) -> list[tuple[str, ...]]:
    return [
        ("a", "--m", str(m_a), "--from", "1", "--to", "48"),
        ("p_diff", "--t", "20", "--from", "1", "--to", "66"),
        ("a_diff", "--m", str(m_ad), "--t", "15", "--from", "1", "--to", "62"),
        ("breg", "--l", "3", "--from", "0", "--to", "60"),
        ("ubar", "--from", "1", "--to", "25"),
    ]


def catalog(seed: int) -> list[tuple[str, ...]]:
    """``verify all`` at the default grids; the seed is ignored."""
    return [CATALOG]


def series_deep(seed: int) -> list[tuple[str, ...]]:
    """Serieswise identities at a raised order, p-combinations, DSL sums."""
    rng = random.Random(seed)
    cmds = [SERIESWISE, P_COMBINATIONS]
    for expr, order in rng.sample(DSL_POOL, DSL_PICKS):
        cmds.append(("series", expr, "--order", str(order),
                     "--format", rng.choice(FORMATS)))
    rng.shuffle(cmds)
    return cmds


def seq_tables(seed: int) -> list[tuple[str, ...]]:
    """Long ascending ``seq`` ranges, one sweep key per command."""
    rng = random.Random(seed)
    rows = _seq_rows(rng.choice(A_M), rng.choice(A_DIFF_M))
    cmds = [("seq", *row, "--format", rng.choice(FORMATS)) for row in rows]
    rng.shuffle(cmds)
    return cmds


WORKLOADS = {"catalog": catalog, "series_deep": series_deep, "seq_tables": seq_tables}


def pool() -> list[tuple[str, ...]]:
    """Every command any seed can produce (``seq``/``series`` in table format)."""
    cmds = [CATALOG, SERIESWISE, P_COMBINATIONS]
    cmds += [("series", expr, "--order", str(order)) for expr, order in DSL_POOL]
    rows = {row for m_a in A_M for m_ad in A_DIFF_M for row in _seq_rows(m_a, m_ad)}
    cmds += [("seq", *row) for row in sorted(rows)]
    return cmds
