"""Lexicographic partition generators: the tests' brute-force oracle.

Each generator lists every qualifying partition (or overpartition) of n
once, in decreasing lexicographic order, by a depth-first walk over runs
(distinct value, multiplicity) with an explicit stack.  Nothing here tallies
a histogram or shares code with the histogram sweeps of
``qpartitions.enumeration``: this file imports nothing from ``qpartitions``,
so the tests can hold the sweeps to it.

Partitions are tuples of parts in non-increasing order; overpartitions are
tuples of ``(value, overlined)`` pairs, values non-increasing with the
overlined copy listed first among equal values.

The keyword filters are pushed down into the walk:

- ``min_part``: every part at least this value;
- ``smallest_mult_min``: the smallest part occurs at least this many times;
- ``exact_diff``: the largest part minus the smallest part is this value;
- ``excluded_modulus``: no part divisible by this modulus.

The empty partition (n = 0) passes ``min_part`` and ``excluded_modulus``
vacuously but fails ``exact_diff`` and ``smallest_mult_min``, which need a
smallest part.
"""

from __future__ import annotations

from itertools import chain


def _gen_runs(n, *, min_part=None, smallest_mult_min=None, exact_diff=None,
              excluded_modulus=None):
    """Yield run lists [(value, count), ...] of qualifying partitions.

    Values strictly decrease along each list; partitions appear in
    decreasing lexicographic order.  Iterative DFS with an explicit stack.
    """
    lo = min_part or 1
    mod = excluded_modulus
    t = exact_diff
    mult = smallest_mult_min
    if n == 0:
        if t is None and mult is None:
            yield []
        return

    root_floor = lo if t is None else lo + t

    def first_cand(used, bound, floor):
        rem = n - used
        v = bound if bound < rem else rem
        while v >= floor:
            if not (mod and v % mod == 0):
                return v, rem // v
            v -= 1
        return None

    def next_cand(v, c, used, floor):
        if c > 1:
            return v, c - 1
        rem = n - used
        v -= 1
        while v >= floor:
            if not (mod and v % mod == 0):
                return v, rem // v
            v -= 1
        return None

    frames: list[tuple[int, int, int]] = []  # (v, c, used_before)
    runs: list[tuple[int, int]] = []
    used = 0
    cand = first_cand(0, n, root_floor)
    while True:
        if cand is None:
            if not frames:
                return
            v, c, used = frames.pop()
            runs.pop()
            floor = root_floor if not frames else (lo if t is None else runs[0][0] - t)
            cand = next_cand(v, c, used, floor)
            continue
        v, c = cand
        total = used + v * c
        frames.append((v, c, used))
        runs.append((v, c))
        if total == n:
            ok = mult is None or c >= mult
            if ok and t is not None:
                ok = v == runs[0][0] - t
            if ok:
                yield runs
            frames.pop()
            runs.pop()
            floor = root_floor if not frames else (lo if t is None else runs[0][0] - t)
            cand = next_cand(v, c, used, floor)
        else:
            used = total
            floor = lo if t is None else runs[0][0] - t
            cand = first_cand(used, v - 1, floor)


def gen_partitions(n, **filters):
    """Yield each qualifying partition of n once, in decreasing lex order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    for runs in _gen_runs(n, **filters):
        yield tuple(chain.from_iterable((v,) * c for v, c in runs))


def gen_overpartitions(n, **filters):
    """Yield each canonical overpartition of n exactly once.

    For every base partition (decreasing lex), the overline subsets are
    emitted in binary-counter order with the largest distinct value as the
    low bit.  Smallest-part multiplicity counts overlined and plain copies
    of the smallest value together, so the filters act on the base alone.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    for runs in _gen_runs(n, **filters):
        d = len(runs)
        for mask in range(1 << d):
            parts: list[tuple[int, bool]] = []
            for i, (v, c) in enumerate(runs):
                if mask >> i & 1:
                    parts.append((v, True))
                    parts.extend(((v, False),) * (c - 1))
                else:
                    parts.extend(((v, False),) * c)
            yield tuple(parts)


def is_ubar_counted(parts) -> bool:
    """The three side conditions selecting the u-bar overpartitions.

    (1) no plain (non-overlined) part equal to 1;
    (2) the smallest part is overlined and its value occurs only once;
    (3) at least two parts, whose top two values are equal, or consecutive
        with the second-greatest part overlined.
    """
    if len(parts) < 2:
        return False
    for v, ov in parts:
        if v == 1 and not ov:
            return False
    sv, s_ov = parts[-1]
    if not s_ov or (len(parts) > 1 and parts[-2][0] == sv):
        return False
    v0 = parts[0][0]
    v1, ov1 = parts[1]
    if v0 == v1:
        return True
    return v0 == v1 + 1 and ov1
