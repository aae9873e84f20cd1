"""Brute-force partition counters: the ground-truth oracles.

The counting functions enumerate run-encoded partitions (distinct value,
multiplicity) and tally histograms keyed by the multiplicity of the
smallest part.  Each counted partition (for overpartitions, each base
partition, weighted 2^runs) gets its own increment; no count is derived in
closed form.  Every sweep splits a partition at its floor f, the smallest
part: for each allowed f one walk, ``_walk_prefixes``, makes run-prefixes
of middle values above f with an explicit stack and closes each with the
runs that end its partitions, k >= 1 copies of f and, for a fixed
difference, the copies of the largest part.  Each sweep keeps one flat
table, slot n * R + k for the partitions of n whose smallest part occurs k
times, and lists once per floor, for each prefix sum s, the slots that the
closing runs of a prefix summing to s fill.  The plain, fixed-difference
and (2d, d) family sweeps differ only in these lists; a family prefix
closes into every d it fits.  The walk takes the floor's three least middle
values out of its prefixes: it extends the lists per floor to ending
lists, one slot per ending (c >= 0 runs of each taken value, then the
closing runs), built only at the prefix sums that the larger values reach
(exact bitset masks), makes only the prefixes of those larger values, and
closes each one once, as it pops it, by one bare ``for i in ends[s]``
loop.  Under ``over`` each ending list is split by the number j of
taken-value runs it adds, and closes with its prefix's weight times 2^j.
What a sweep tallies is set by its key and bound, not by the exact reads:
every sweep covers each n up to a bound, which a caller reading a range
sets by asking for its largest n first.  The reads whose smallest part is
at least lo >= 2 (``count_Q``, and ``count_p_star`` for m >= 2) share one
key per (mod, over), swept one floor at a time from the top down: the
running sum after floor k is the lo = k histogram.  A fixed-difference
shape is a key of its own; reads of (2d, d), the paper's counts of
partitions of 2d with difference d, share one family key per
(lo, mod, over) instead, swept over every d up to a bound.  A family first
read at a d divisible by its modulus (``reg_div`` reads only those) closes
only into those rows, until a read off them sweeps it whole.  See
``_HistCache``.  ``count_p`` alone uses the pentagonal-number recurrence.

Sizes below 1 have no sweep row: no partition of n < 1 has a smallest
part, so ``_HistCache`` answers every n < 1 with an empty histogram (a
u-bar total of 0) and sweeps nothing.  The counters therefore read n < 1
like any other n and return 0 there, except where the empty partition
counts: ``count_p_star``, ``count_pbar`` and ``count_breg`` are 1 at
n = 0, and ``count_Q`` is 1 at target 0 under ``at_least``.

The u-bar counts are swept by a stack walk of their own.  An overpartition
is a base partition plus a choice of overlined runs (at most one overline
per value), so weighting each base partition by how many choices satisfy
the u-bar side conditions (no plain 1; an overlined smallest part whose
value occurs once; the top two values equal, or consecutive with the second
part overlined) counts every u-bar overpartition exactly once, and each
counted base partition is still tallied once.  For runs v1 > ... > vr with
multiplicities c1 ... cr:

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

from itertools import chain

Partition = tuple[int, ...]
Overpartition = tuple[tuple[int, bool], ...]


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


def _walk_prefixes(F: list[int], close: list[list[int]], f: int, cap: int, top: int,
                   mod: int | None, w: int, over: bool) -> None:
    # Every run-prefix of middle values in (f, cap), none divisible by mod,
    # whose sum s is at most top closes through close[s]: its weight is
    # added at each slot listed there, one increment per partition.  The
    # empty prefix weighs w, and under over each middle run doubles it.
    # The three least middle values end prefixes without being walked:
    # ends[u] lists one slot per ending of a prefix summing to u, c >= 0 runs
    # of each taken value and then the closing runs.  The lists of close grow
    # into ends in place, one step per taken value v from the least, top-down
    # by ends[u] += ends[u + v], which adds the endings with runs of v.  The
    # walk makes only the prefixes of values above lo, the largest taken
    # value, and closes each one once, as it pops it.  A step keeps ends[u]
    # only where bit u of its mask is set and drops the rest: the sums that
    # prefixes of the walked values reach, widened by the multiples of v and
    # of the values taken after it (shifts v, 2v, 4v, ... <= top reach every
    # c v <= top).  Under over an ending with j runs of taken values weighs
    # w << j, so each ends[u] is split by j; ones[u] holds, split by j - 1,
    # the endings with c >= 1 copies of v after a prefix summing to u.
    values = [v for v in range(f + 1, min(cap, top + 1)) if not (mod and v % mod == 0)]
    taken = values[:3]
    full = (2 << top) - 1
    need = 1
    masks = []
    for v in values[3:] + taken[::-1]:
        shift = v
        while shift <= top:
            need |= need << shift & full
            shift += shift
        masks.append(need)
    ends = [[s] for s in close] if over else close
    lo = f
    for k, (v, mask) in enumerate(zip(taken, masks[::-1]), 1):
        ones = [[[]] * k] * (top + 1)
        for u in range(top, -1, -1):
            if not mask >> u & 1:
                ends[u] = ()
            elif over:
                e = ends[u]
                if u >= v:
                    ones[u - v] = list(map(list.__add__, e, ones[u]))
                ends[u] = list(map(list.__add__, e + [[]], [[]] + ones[u]))
            elif u + v <= top:
                ends[u] += ends[u + v]
        lo = v
    stack = [(cap, 0, w)]
    push = stack.append
    pop = stack.pop
    while stack:
        prev, used, w = pop()
        if over:
            for j, e in enumerate(ends[used]):
                wj = w << j
                for i in e:
                    F[i] += wj
            w += w
        else:
            for i in ends[used]:
                F[i] += w
        for v in range(min(prev - 1, top - used), lo, -1):
            if mod and v % mod == 0:
                continue
            for s in range(used + v, top + 1, v):
                push((v, s, w))


def _sweep_plain(nmax: int, lo: int, mod: int | None, over: bool, hi: int | None = None):
    # F[n * R + k] counts the partitions of n whose smallest part f occurs
    # k times, for every n <= nmax.  For each allowed f, lo <= f < hi
    # (hi <= nmax + 1, or None for nmax + 1), the walk makes every prefix of
    # larger runs once, and close[s] lists the slots (s + k f) * R + k,
    # k >= 1, that the runs of f fitting after a prefix summing to s fill.
    # Overpartitions weigh each partition by 2^runs.  The flat table
    # becomes one histogram dict per n once, at the end, for the n that a
    # smallest part f reaches: n = f, or n >= 2f.  Prefix sums s in [1, f]
    # are out of reach too, and get no slot list.
    R = nmax // lo + 1
    size = (nmax + 1) * R
    F = [0] * size
    for f in range(lo, hi or nmax + 1):
        if mod and f % mod == 0:
            continue
        top = nmax - f
        close = [list(range((s + f) * R + 1, size, f * R + 1)) if s == 0 or s > f else ()
                 for s in range(top + 1)]
        _walk_prefixes(F, close, f, top + 1, top, mod, 2 if over else 1, over)
    H = [{}] * (nmax + 1)
    for n in chain(range(lo, min(hi or nmax + 1, lo + lo)), range(lo + lo, nmax + 1)):
        H[n] = {c: cnt for c, cnt in enumerate(F[n * R:n * R + R]) if cnt}
    return H


def _unswept_floors(nmax: int) -> list:
    # a floors key's tables before a sweep: only floor nmax + 1, which is empty
    return [None] * (nmax + 1) + [[{}] * (nmax + 1)]


def _merged(h: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    if not g:
        return h
    if not h:
        return g
    h = h.copy()
    for c, cnt in g.items():
        h[c] = h.get(c, 0) + cnt
    return h


def _sweep_diff(nmax: int, t: int | None, lo: int, mod: int | None, over: bool,
                stride: int = 1):
    # Partitions whose largest minus smallest part is t, for every n <= nmax,
    # in the flat table of _sweep_plain.  For each floor f the largest part
    # is a = f + t; the walk makes the prefixes of middle runs, values in
    # (f, a), up to the sum nmax - a - f that leaves room for one a and one
    # f, and close[s] lists the slots n * R + k, n = s + c a + k f, of every
    # c, k >= 1 that fit.  Overpartitions weigh each partition by 2^runs.
    #
    # t None: the (2d, d) family, row 2d holding the partitions of 2d whose
    # difference is d, for every d <= nmax // 2 (odd rows stay empty).  With
    # the floor f fixed, the largest part d + f occurs once, since two copies
    # would sum past 2d, and the middle parts (values strictly between) sum
    # to s = d - f(k + 1) for k >= 1 floor parts: less than d + f, so they
    # need no upper bound.  The walk makes the middle prefixes with sums up
    # to D - 2f, and each closes into exactly one partition for every
    # d = s + f(k + 1) <= D whose largest part mod does not divide; close[s]
    # lists their slots d * R + k.  Every prefix is shared by all the d it
    # closes into, which is why one family sweep to D costs far less than a
    # sweep of each shape (2d, d), which also tallies every n below 2d (5.5M
    # tallies for every d <= 60 against 35.9M for d = 26 .. 60 as 35 sweeps
    # of their shapes).  A stride family closes only into the rows whose d
    # stride divides.  As in every mode, the walk ends its prefixes with
    # runs of the floor's three least middle values through ending lists
    # built from close at the prefix sums it reaches.
    w = 1 if not over else 2 if t == 0 else 4  # the largest and floor runs
    if t is None:
        D = nmax // 2
        R = D // lo + 1  # k <= D // lo - 1
        F = [0] * ((D + 1) * R)
        for f in range(lo, D // 2 + 1):
            if mod and f % mod == 0:
                continue
            top = D - f - f
            close = [[d * R + (d - s) // f - 1 for d in range(s + f + f, D + 1, f)
                      if d % stride == 0 and not (mod and (d + f) % mod == 0)]
                     for s in range(top + 1)]
            _walk_prefixes(F, close, f, top + 1, top, mod, w, over)
        H = [{} for _ in range(nmax + 1)]
        for d in range(stride, D + 1, stride):
            H[d + d] = {k: cnt for k, cnt in enumerate(F[d * R:d * R + R]) if cnt}
        return H
    R = nmax // lo + 1
    size = (nmax + 1) * R
    F = [0] * size
    for f in range(lo, nmax + 1):
        a = f + t
        if mod and (a % mod == 0 or f % mod == 0):
            continue
        if t == 0:  # k copies of f alone: slot k f R + k
            for i in range(f * R + 1, size, f * R + 1):
                F[i] += w
            continue
        top = nmax - a - f
        if top < 0:
            break
        close = [[i for u in range(s + a + f, nmax + 1, a)
                  for i in range(u * R + 1, size, f * R + 1)] for s in range(top + 1)]
        _walk_prefixes(F, close, f, a, top, mod, w, over)
    return [{c: cnt for c, cnt in enumerate(F[n * R:n * R + R]) if cnt} for n in range(nmax + 1)]


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

    Sweeps stay brute force, visiting each counted partition once; a sweep
    may tally sizes no caller reads, within the bound its key sets.  Every
    key is swept over every size up to a bound and grown by one rule.

    - The first miss sweeps to ``n`` (at least 16, below which a sweep costs
      nothing); a later miss regrows with modest headroom, since a loop that
      asks for ascending n would otherwise sweep once per n.  Callers that
      read a range therefore ask for its largest n first, so that one sweep
      serves the whole range.
    - Plain keys are ``(1, mod, over)``; a fixed-difference shape is
      ``(lo, mod, diff, over)``, so a reader of a whole row (``seq``,
      ``thm_and``) sweeps it once.
    - Plain reads at ``lo >= 2`` share the floors key
      ``("lo >= 2", mod, over)``, whose entry holds the lo = k histograms
      of each floor k swept: floor k's own sweep (``hi = k + 1``) added to
      floor k + 1's.  A miss below the lowest floor swept sweeps only the
      floors in between, so ``thmG1`` and then ``remark7`` sweep each
      floor >= 2 once.  The lo = 1 key stays apart, so that ``thmG1``'s
      two sides read different tables.
    - Reads at ``n = 2 diff`` that the shape's own entry does not cover go
      to the (2d, d) family key ``("2n, n", lo, mod, over)`` instead, one
      for every diff (``_sweep_diff`` with ``t`` None).  Every reader of
      these counts reads a whole grid of d, largest first, so ``prop2``,
      ``over1`` and each ``reg_div`` modulus make one family sweep, and
      ``remark7`` after ``prop2`` regrows it once instead of sweeping each
      n.  While no such entry exists, a read at ``mod | diff`` goes to
      ``("2n, n", lo, mod, over, mod)``, a family closed only into the rows
      ``mod | d`` (``reg_div``'s default reads); the first read off them
      sweeps the whole family.
    - A lone read, a shape read at one size off the family, pays for the
      sizes below it too: 2 to 4 times what counting that one n alone
      cost, at (59, 6), (100, 30) and (120, 40).  In the catalog only
      ``reg_odd`` and ``reg_nondiv`` make lone reads, on small shapes.
    - The u-bar key holds per-n totals (``_sweep_ubar``).
    - No key has a row below 1: ``get`` answers every n < 1 with ``{}``
      and ``ubar`` with 0, sweeping nothing, so no counter needs its own
      n-edge return.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple[int, list]] = {}

    def get(self, n: int, *, lo: int = 1, mod: int | None = None,
            diff: int | None = None, over: bool = False) -> dict[int, int]:
        if n < 1:
            return {}
        if diff is None:
            if lo == 1:
                return self._swept((1, mod, over), n, _sweep_plain, 1, mod, over)[n]
            return self._floors(n, lo, mod, over)[n]
        shape = (lo, mod, diff, over)
        entry = self._entries.get(shape)
        if n == 2 * diff and (entry is None or n > entry[0]):
            # one key for the (2n, n) reads of every diff, at stride mod
            # until a read falls off it
            key = ("2n, n", lo, mod, over)
            if mod and diff % mod == 0 and key not in self._entries:
                return self._swept(key + (mod,), n, _sweep_diff, None, lo, mod, over, mod)[n]
            return self._swept(key, n, _sweep_diff, None, lo, mod, over)[n]
        return self._swept(shape, n, _sweep_diff, diff, lo, mod, over)[n]

    def _floors(self, n: int, lo: int, mod: int | None, over: bool) -> list:
        # tables[k] is the lo = k histogram list, or None below the lowest
        # floor swept, from which a miss walks down to lo.  Floor f adds to
        # the rows it reaches, n >= 2f, and fills row f, which no floor
        # above it reaches; the other rows are shared with the table above
        tables = self._swept(("lo >= 2", mod, over), n, _unswept_floors)
        k = min(lo, len(tables) - 1)
        if tables[k] is None:
            nmax = len(tables) - 2
            low = k + 1
            while tables[low] is None:
                low += 1
            run = tables[low]
            for f in range(low - 1, k - 1, -1):
                hists = _sweep_plain(nmax, f, mod, over, f + 1)
                run = tables[f] = run[:2 * f] + list(map(_merged, run[2 * f:], hists[2 * f:]))
                run[f] = hists[f]
        return tables[k]

    def ubar(self, n: int) -> int:
        """The u-bar total of n, from a key grown like a plain one."""
        if n < 1:
            return 0
        return self._swept(("ubar",), n, _sweep_ubar)[n]

    def _swept(self, key: tuple, n: int, sweep, *args) -> list:
        entry = self._entries.get(key)
        if entry is None or entry[0] < n:
            # modest headroom: enumeration cost grows so fast in the bound
            # that doubling would dwarf the queries themselves
            old = entry[0] if entry else 0
            nmax = max(n, 16, old + max(8, old // 8))
            entry = (nmax, sweep(nmax, *args))
            self._entries[key] = entry
        return entry[1]

    def clear(self) -> None:
        self._entries.clear()


_hists = _HistCache()


def _total(hist: dict[int, int], m: int = 1) -> int:
    if m <= 1:
        return sum(hist.values())
    return sum(cnt for c, cnt in hist.items() if c >= m)


# One check per argument kind that several counters share; each counter
# makes its checks before it reads n, in the order of its parameters.


def _check_mult(m: int) -> None:
    if m < 1:
        raise ValueError("multiplicity bound must be positive")


def _check_diff(t: int) -> None:
    if t < 0:
        raise ValueError("difference must be non-negative")


def _check_modulus(l: int) -> None:
    if l < 2:
        raise ValueError("regularity modulus must be at least 2")


def _check_mult_modulus(m: int, l: int) -> None:
    if m < 1 or l < 2:
        raise ValueError("requires m >= 1 and l >= 2")


# ----------------------------------------------------------------------
# counting functions (plain partitions)
# ----------------------------------------------------------------------


def count_p_fixed_diff(n: int, t: int) -> int:
    """Partitions of n with largest part minus smallest part exactly t."""
    _check_diff(t)
    return _total(_hists.get(n, diff=t))


def count_a(m: int, n: int) -> int:
    """Partitions of n whose smallest part occurs at least m times."""
    _check_mult(m)
    return _total(_hists.get(n), m)


def count_a_diff(m: int, n: int, d: int) -> int:
    """As count_a, additionally requiring largest - smallest == d."""
    _check_mult(m)
    _check_diff(d)
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
    if n == 0:
        return 1
    return _total(_hists.get(n, lo=m))


# ----------------------------------------------------------------------
# counting functions (overpartitions)
# ----------------------------------------------------------------------


def count_pbar(n: int) -> int:
    """Number of overpartitions of n; 1 at n == 0."""
    if n == 0:
        return 1
    return _total(_hists.get(n, over=True))


def count_pbar_diff(n: int, t: int) -> int:
    """Overpartitions of n with largest value minus smallest value exactly t."""
    _check_diff(t)
    return _total(_hists.get(n, diff=t, over=True))


def count_abar(m: int, n: int) -> int:
    """Overpartitions of n whose smallest part occurs at least m times.

    Overlined and plain copies of the smallest value count together.
    """
    _check_mult(m)
    return _total(_hists.get(n, over=True), m)


def count_abar_diff(m: int, n: int, d: int) -> int:
    """As count_abar with largest - smallest == d."""
    _check_mult(m)
    _check_diff(d)
    return _total(_hists.get(n, diff=d, over=True), m)


def count_ubar(n: int) -> int:
    """Overpartitions of n satisfying the u-bar side conditions."""
    return _hists.ubar(n)


# ----------------------------------------------------------------------
# counting functions (l-regular partitions)
# ----------------------------------------------------------------------


def count_breg(l: int, n: int) -> int:
    """Partitions of n with no part divisible by l; 1 at n == 0."""
    _check_modulus(l)
    if n == 0:
        return 1
    return _total(_hists.get(n, mod=l))


def count_breg_diff(l: int, n: int, t: int) -> int:
    """l-regular partitions of n with largest - smallest == t."""
    _check_modulus(l)
    _check_diff(t)
    return _total(_hists.get(n, mod=l, diff=t))


def count_areg(m: int, l: int, n: int) -> int:
    """l-regular partitions of n with smallest part occurring >= m times."""
    _check_mult_modulus(m, l)
    return _total(_hists.get(n, mod=l), m)


def count_areg_diff(m: int, l: int, n: int, k: int) -> int:
    """As count_areg with largest - smallest == k."""
    _check_mult_modulus(m, l)
    _check_diff(k)
    return _total(_hists.get(n, mod=l, diff=k), m)
