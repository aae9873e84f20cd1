"""Brute-force partition generators and counters: the ground-truth oracles.

Partitions are tuples of parts in non-increasing order; overpartitions are
tuples of ``(value, overlined)`` pairs, values non-increasing with the
overlined copy listed first among equal values.

The counting functions enumerate run-encoded partitions (distinct value,
multiplicity) with an explicit stack and tally histograms keyed by the
multiplicity of the smallest part, visiting each counted partition once.
Each counted partition (for overpartitions, each base partition, weighted
2^runs) gets its own increment, made when its last run is added; no count
is derived in closed form.  What keeps the per-partition cost down: a run
of the least allowed value ends its partition, so a plain sweep tallies
those runs (most of its partitions) in a loop without push tests, and a
fixed-difference sweep steps the copies of a middle value in a bare
``while`` loop, since most middle values fit only a few times.
A sweep tallies only what its callers read: a fixed-difference sweep
counts the partitions of the one n asked for, and a sweep without a
difference covers every n up to a bound, which a caller reading a range
sets by asking for its largest n first (see ``_HistCache``).  ``count_p``
alone uses the pentagonal-number recurrence.

The u-bar counts are swept the same way.  An overpartition is a base
partition plus a choice of overlined runs (at most one overline per value),
so weighting each base partition by how many choices satisfy the side
conditions of ``is_ubar_counted`` counts every u-bar overpartition exactly
once, and each counted base partition is still tallied once.  For runs
v1 > ... > vr with multiplicities c1 ... cr:

- the smallest part must be overlined and alone, so only r >= 2 and
  cr = 1 count, with run r overlined; every other run has a value above
  vr >= 1, so no plain 1 can occur;
- if c1 >= 2 the top two parts are equal, and runs 1 .. r-1 are free:
  weight 2^(r-1);
- if c1 = 1 the top two values must be consecutive (v2 = v1 - 1) and the
  second part, the first copy of run 2, overlined, so run 2 is: weight 2
  for r = 2 (run 1 free) and 2^(r-2) for r >= 3 (runs 1 and 3 .. r-1
  free);
- any other base partition has weight 0, and its subtree is never made.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

Partition = tuple[int, ...]
Overpartition = tuple[tuple[int, bool], ...]


@dataclass(frozen=True)
class PartitionFilter:
    """Composable restrictions on generated partitions.

    min_part: every part at least this value.
    smallest_mult_min: the smallest part occurs at least this many times.
    exact_diff: largest part minus smallest part equals this value.
    excluded_modulus: no part divisible by this modulus (>= 2).

    The empty partition (n = 0) passes min_part and modulus vacuously but
    fails exact_diff and smallest_mult_min, which need a smallest part.
    """

    min_part: int | None = None
    smallest_mult_min: int | None = None
    exact_diff: int | None = None
    excluded_modulus: int | None = None

    def __post_init__(self) -> None:
        if self.min_part is not None and self.min_part < 1:
            raise ValueError("min_part must be positive")
        if self.smallest_mult_min is not None and self.smallest_mult_min < 1:
            raise ValueError("smallest_mult_min must be positive")
        if self.exact_diff is not None and self.exact_diff < 0:
            raise ValueError("exact_diff must be non-negative")
        if self.excluded_modulus is not None and self.excluded_modulus < 2:
            raise ValueError("excluded_modulus must be at least 2")

    def matches(self, parts: Partition) -> bool:
        """Does a (plain) partition satisfy every constraint?"""
        if not parts:
            return self.exact_diff is None and self.smallest_mult_min is None
        if self.min_part is not None and parts[-1] < self.min_part:
            return False
        if self.excluded_modulus is not None and any(
            p % self.excluded_modulus == 0 for p in parts
        ):
            return False
        if self.exact_diff is not None and parts[0] - parts[-1] != self.exact_diff:
            return False
        if self.smallest_mult_min is not None:
            if parts.count(parts[-1]) < self.smallest_mult_min:
                return False
        return True


EMPTY_FILTER = PartitionFilter()


# ----------------------------------------------------------------------
# p(n): pentagonal-number recurrence with a shared memo table
# ----------------------------------------------------------------------

_p_memo: list[int] = [1]


def count_p(n: int) -> int:
    """p(n), the number of partitions of n; 0 for negative n."""
    if n < 0:
        return 0
    memo = _p_memo
    if n >= len(memo):
        for m in range(len(memo), n + 1):
            total = 0
            j = 1
            while True:
                g1 = j * (3 * j - 1) // 2
                if g1 > m:
                    break
                sign = 1 if j % 2 else -1
                total += sign * memo[m - g1]
                g2 = j * (3 * j + 1) // 2
                if g2 <= m:
                    total += sign * memo[m - g2]
                j += 1
            memo.append(total)
    return memo[n]


# ----------------------------------------------------------------------
# histogram sweeps, tallied by the multiplicity of the smallest part
# ----------------------------------------------------------------------


def _sweep_plain(nmax: int, lo: int, mod: int | None, over: bool):
    # T[n][c] accumulates partitions of n whose smallest run is (v, c);
    # every run-prefix in the DFS tree is itself a partition of its sum,
    # so each qualifying partition of each n <= nmax is visited once.
    # For overpartitions each value run may carry one overline: weight 2^runs.
    # The flat per-n lists become histogram dicts once, at the end.
    T = [[0] * (n // lo + 1) for n in range(nmax + 1)]
    top = nmax - lo  # a prefix summing to more has no room for another run
    w0 = 2 if over else 1
    stack = [(nmax + 1, 0, w0)]
    push = stack.append
    pop = stack.pop
    while stack:
        prev, used, w = pop()
        v = prev - 1
        if v > nmax - used:
            v = nmax - used
        w2 = w + w if over else w
        while v > lo:
            if mod and v % mod == 0:
                v -= 1
                continue
            c = 1
            for u in range(used + v, nmax + 1, v):
                T[u][c] += w
                if u <= top:
                    push((v, u, w2))
                c += 1
            v -= 1
        # A run of lo, the least allowed value, ends its partition: no
        # smaller value may follow, so these runs are tallied apart, after
        # the larger values, without a push test.  Each such partition
        # still gets one increment, from the one prefix it extends; they
        # are 5.67M of the 6.64M partitions up to 60.  A lo that mod
        # divides is excluded like any other value.
        if v == lo and not (mod and lo % mod == 0):
            c = 1
            for u in range(used + lo, nmax + 1, lo):
                T[u][c] += w
                c += 1
    return [{c: cnt for c, cnt in enumerate(row) if cnt} for row in T]


def _sweep_diff(nmax: int, t: int, lo: int, mod: int | None, over: bool):
    # Exact target: tally only the partitions of nmax itself whose largest
    # minus smallest part is t; index nmax of the result holds them, the
    # rest stay empty.  For each largest part a (floor = a - t) the DFS
    # walks run-prefixes: the run of a, then middle runs strictly between
    # floor and a.  A prefix leaving rem closes with a floor run only when
    # floor divides rem, and no prefix leaving less than one floor part is
    # ever made.  Overpartitions weigh each partition by 2^runs.
    H: list[dict[int, int]] = [{} for _ in range(nmax + 1)]
    tally = [0] * (nmax + 1)  # by multiplicity of the floor run
    w_largest = 1 if not over else 2 if t == 0 else 4  # floor run included
    for a in range(lo + t, nmax + 1):
        floor = a - t
        if mod and (a % mod == 0 or floor % mod == 0):
            continue
        if t == 0:
            if nmax % a == 0:
                tally[nmax // a] = w_largest
            continue
        # (prev, rem, weight) prefixes that can still take a middle run
        # and a floor part, i.e. rem > 2 floor
        stack = []
        push = stack.append
        pop = stack.pop
        twice = floor + floor
        for rem in range(nmax - a, floor - 1, -a):
            if rem % floor == 0:
                tally[rem // floor] += w_largest
            if rem > twice:
                push((a, rem, w_largest))
        while stack:
            prev, rem, w = pop()
            if over:
                w += w
            v = prev - 1
            if v > rem - floor:
                v = rem - floor
            while v > floor:
                if mod and v % mod == 0:
                    v -= 1
                    continue
                extend = v - 1 > floor
                # copies of v, r being what is left after each; a bare loop,
                # because v mostly fits only a few times (remark7's 60
                # sweeps: 2.22M prefix and value pairs, 6.25M copies) and
                # building a range per pair cost more than stepping
                r = rem - v
                while r >= floor:
                    if r % floor == 0:
                        tally[r // floor] += w
                    if extend and r > twice:
                        push((v, r, w))
                    r -= v
                v -= 1
    H[nmax] = {c: cnt for c, cnt in enumerate(tally) if cnt}
    return H


def _sweep_ubar(nmax: int) -> list[int]:
    # T[n] counts the u-bar overpartitions of n for every n <= nmax: each
    # base partition is tallied once, when its last run is added as a
    # single copy, by its number of admissible overline choices (see the
    # module docstring).  A stacked prefix (prev, used, w) ends with a run
    # of prev and leaves room for another run; w is the weight of closing
    # it with one copy of a smaller value, and a run added without closing
    # is free to carry an overline, so it doubles w.
    T = [0] * (nmax + 1)
    stack = []
    push = stack.append
    pop = stack.pop
    for v1 in range(2, nmax + 1):
        # c1 >= 2: closing at r = 2 weighs 2^(r-1) = 2
        for u in range(v1 + v1, nmax, v1):
            push((v1, u, 2))
        # c1 = 1: run 2 is v1 - 1, overlined; closing there weighs 2, and
        # so does closing at r = 3 (2^(r-2))
        v2 = v1 - 1
        u = v1 + v2
        if u <= nmax:
            T[u] += 2
            if v2 > 1:
                for u in range(u, nmax, v2):
                    push((v2, u, 2))
    while stack:
        prev, used, w = pop()
        w2 = w + w
        v = prev - 1
        if v > nmax - used:
            v = nmax - used
        while v > 1:
            u = used + v
            T[u] += w
            for u in range(u, nmax, v):
                push((v, u, w2))
            v -= 1
        # a single 1 closes every prefix; nothing follows a run of 1
        T[used + 1] += w
    return T


class _HistCache:
    """Memoised sweep results, keyed by the filter shape.

    Every sweep tallies only what some caller reads; sweeps stay brute
    force, visiting each counted partition once.

    - Fixed-difference keys (``diff`` not None) are exact-target: a miss
      sweeps partitions of exactly ``n`` and the histogram is memoised per
      ``(lo, mod, diff, over, n)``.
    - Plain keys sweep every size up to a bound at once.  The first miss
      sweeps to ``n`` (at least 16, below which a sweep costs nothing);
      a later miss regrows with modest headroom, since a loop that asks
      for ascending n would otherwise sweep once per n.  Callers that read
      a range therefore ask for its largest n first, so that one sweep
      serves the whole range.
    - The u-bar key holds per-n totals (``_sweep_ubar``) and grows like a
      plain key.
    """

    def __init__(self) -> None:
        self._plain: dict[tuple, tuple[int, list]] = {}
        self._diff: dict[tuple, dict[int, int]] = {}

    def get(self, n: int, *, lo: int = 1, mod: int | None = None,
            diff: int | None = None, over: bool = False) -> dict[int, int]:
        if n < 0:
            return {}
        if diff is not None:
            key = (lo, mod, diff, over, n)
            hist = self._diff.get(key)
            if hist is None:
                hist = _sweep_diff(n, diff, lo, mod, over)[n]
                self._diff[key] = hist
            return hist
        return self._swept((lo, mod, over), n, _sweep_plain, lo, mod, over)[n]

    def ubar(self, n: int) -> int:
        """The u-bar total of n >= 0, from a key grown like a plain one."""
        return self._swept(("ubar",), n, _sweep_ubar)[n]

    def _swept(self, key: tuple, n: int, sweep, *args) -> list:
        entry = self._plain.get(key)
        if entry is None or entry[0] < n:
            # modest headroom: enumeration cost grows so fast in the bound
            # that doubling would dwarf the queries themselves
            old = entry[0] if entry else 0
            nmax = max(n, 16, old + max(8, old // 8))
            entry = (nmax, sweep(nmax, *args))
            self._plain[key] = entry
        return entry[1]

    def clear(self) -> None:
        self._plain.clear()
        self._diff.clear()


_hists = _HistCache()


def _total(hist: dict[int, int], m: int = 1) -> int:
    if m <= 1:
        return sum(hist.values())
    return sum(cnt for c, cnt in hist.items() if c >= m)


# ----------------------------------------------------------------------
# counting functions (plain partitions)
# ----------------------------------------------------------------------


def count_p_fixed_diff(n: int, t: int) -> int:
    """Partitions of n with largest part minus smallest part exactly t."""
    if t < 0:
        raise ValueError("difference must be non-negative")
    if n < 1:
        return 0
    return _total(_hists.get(n, diff=t))


def count_a(m: int, n: int) -> int:
    """Partitions of n whose smallest part occurs at least m times."""
    if m < 1:
        raise ValueError("multiplicity bound must be positive")
    if n < 1:
        return 0
    return _total(_hists.get(n), m)


def count_a_diff(m: int, n: int, d: int) -> int:
    """As count_a, additionally requiring largest - smallest == d."""
    if m < 1:
        raise ValueError("multiplicity bound must be positive")
    if d < 0:
        raise ValueError("difference must be non-negative")
    if n < 1:
        return 0
    return _total(_hists.get(n, diff=d), m)


def count_Q(l: int, k: int, n: int, convention: str = "at_least") -> int:
    """Partitions of n - l*(k-1) with smallest part k.

    Under ``at_least`` the smallest part is >= k and the empty partition
    counts 1 when the target is zero; under ``exactly`` the smallest part
    equals k and the empty partition counts 0.  Both conventions stay
    callable; verification fixed ``at_least`` as the reading that makes the
    smallest-multiplicity formula close (see the identities registry).
    """
    if l < 2 or k < 3:
        raise ValueError("requires l >= 2 and k >= 3")
    if convention not in ("at_least", "exactly"):
        raise ValueError(f"unknown convention {convention!r}")
    target = n - l * (k - 1)
    if target < 0:
        return 0
    if target == 0:
        return 1 if convention == "at_least" else 0
    at_least = _total(_hists.get(target, lo=k))
    if convention == "at_least":
        return at_least
    return at_least - _total(_hists.get(target, lo=k + 1))


def count_p_star(m: int, n: int) -> int:
    """Partitions of n with least part >= m; 1 at n == 0."""
    if m < 1:
        raise ValueError("minimum part must be positive")
    if n < 0:
        return 0
    if n == 0:
        return 1
    return _total(_hists.get(n, lo=m))


# ----------------------------------------------------------------------
# counting functions (overpartitions)
# ----------------------------------------------------------------------


def count_pbar(n: int) -> int:
    """Number of overpartitions of n; 1 at n == 0."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    return _total(_hists.get(n, over=True))


def count_pbar_diff(n: int, t: int) -> int:
    """Overpartitions of n with largest value minus smallest value exactly t."""
    if t < 0:
        raise ValueError("difference must be non-negative")
    if n < 1:
        return 0
    return _total(_hists.get(n, diff=t, over=True))


def count_abar(m: int, n: int) -> int:
    """Overpartitions of n whose smallest part occurs at least m times.

    Overlined and plain copies of the smallest value count together.
    """
    if m < 1:
        raise ValueError("multiplicity bound must be positive")
    if n < 1:
        return 0
    return _total(_hists.get(n, over=True), m)


def count_abar_diff(m: int, n: int, d: int) -> int:
    """As count_abar with largest - smallest == d."""
    if m < 1:
        raise ValueError("multiplicity bound must be positive")
    if d < 0:
        raise ValueError("difference must be non-negative")
    if n < 1:
        return 0
    return _total(_hists.get(n, diff=d, over=True), m)


def is_ubar_counted(parts: Overpartition) -> bool:
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


def count_ubar(n: int) -> int:
    """Overpartitions of n satisfying the u-bar side conditions."""
    if n < 1:
        return 0
    return _hists.ubar(n)


# ----------------------------------------------------------------------
# counting functions (l-regular partitions)
# ----------------------------------------------------------------------


def count_breg(l: int, n: int) -> int:
    """Partitions of n with no part divisible by l; 1 at n == 0."""
    if l < 2:
        raise ValueError("regularity modulus must be at least 2")
    if n < 0:
        return 0
    if n == 0:
        return 1
    return _total(_hists.get(n, mod=l))


def count_breg_diff(l: int, n: int, t: int) -> int:
    """l-regular partitions of n with largest - smallest == t."""
    if l < 2:
        raise ValueError("regularity modulus must be at least 2")
    if t < 0:
        raise ValueError("difference must be non-negative")
    if n < 1:
        return 0
    return _total(_hists.get(n, mod=l, diff=t))


def count_areg(m: int, l: int, n: int) -> int:
    """l-regular partitions of n with smallest part occurring >= m times."""
    if m < 1 or l < 2:
        raise ValueError("requires m >= 1 and l >= 2")
    if n < 1:
        return 0
    return _total(_hists.get(n, mod=l), m)


def count_areg_diff(m: int, l: int, n: int, k: int) -> int:
    """As count_areg with largest - smallest == k."""
    if m < 1 or l < 2:
        raise ValueError("requires m >= 1 and l >= 2")
    if k < 0:
        raise ValueError("difference must be non-negative")
    if n < 1:
        return 0
    return _total(_hists.get(n, mod=l, diff=k), m)


# ----------------------------------------------------------------------
# streaming generators (decreasing lexicographic order)
# ----------------------------------------------------------------------


def _gen_runs(n: int, f: PartitionFilter):
    """Yield run lists [(value, count), ...] of qualifying partitions.

    Values strictly decrease along each list; partitions appear in
    decreasing lexicographic order.  Iterative DFS with an explicit stack.
    """
    lo = f.min_part or 1
    mod = f.excluded_modulus
    t = f.exact_diff
    mult = f.smallest_mult_min
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


def gen_partitions(n: int, f: PartitionFilter = EMPTY_FILTER):
    """Yield each qualifying partition of n once, in decreasing lex order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    for runs in _gen_runs(n, f):
        yield tuple(chain.from_iterable((v,) * c for v, c in runs))


def gen_overpartitions(n: int, f: PartitionFilter = EMPTY_FILTER):
    """Yield each canonical overpartition of n exactly once.

    For every base partition (decreasing lex), the overline subsets are
    emitted in binary-counter order with the largest distinct value as the
    low bit.  Smallest-part multiplicity counts overlined and plain copies
    of the smallest value together, so the filter acts on the base alone.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    for runs in _gen_runs(n, f):
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


def format_overpartition(parts: Overpartition) -> str:
    """Human-readable rendering, overlined values marked with a trailing '~'."""
    if not parts:
        return "0"
    return "+".join(f"{v}~" if ov else str(v) for v, ov in parts)
