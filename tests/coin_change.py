"""Histogram references for the sweep kernels, by coin change.

Each function returns what the matching ``enumeration`` sweep returns, a
list over n <= depth of {c: the partitions of n whose smallest part occurs
exactly c times}, but counts them from tables of partitions into a set of
allowed parts, filled one part value at a time.  Nothing here walks a
partition or shares code with the kernels.  Under ``over`` each run (each
distinct value) weighs 2, as in the kernels' overpartition counts.
"""


def _allowed(v, mod):
    return not (mod and v % mod == 0)


def _add_value(table, v, w):
    # table[N] counted the partitions of N into the values added so far;
    # afterwards it also allows any number c >= 1 of parts v, weighted w
    # (1 + w q^v / (1 - q^v)).  runs[N] holds the part with at least one v.
    runs = [0] * len(table)
    for N in range(v, len(table)):
        runs[N] = table[N - v] + runs[N - v]
    return [t + w * r for t, r in zip(table, runs)]


def smallest_run_hists(depth, lo, mod, over):
    """The plain key: the sum over allowed s >= lo of weight times
    p_{>s}(n - c s), with p_{>s} the partitions into allowed parts above s."""
    w = 2 if over else 1
    above = [1] + [0] * depth  # above s = depth: only the empty partition
    hists = [{} for _ in range(depth + 1)]
    for s in range(depth, lo - 1, -1):
        if not _allowed(s, mod):
            continue
        for c in range(1, depth // s + 1):
            for n in range(c * s, depth + 1):
                if above[n - c * s]:
                    hists[n][c] = hists[n].get(c, 0) + w * above[n - c * s]
        above = _add_value(above, s, w)
    return hists


def fixed_diff_hists(depth, t, lo, mod, over):
    """Difference t: for each allowed floor f >= lo whose f + t is allowed,
    c parts f, then a partition into allowed parts in (f, f + t] with at
    least one part f + t (none at all for t = 0)."""
    w = 2 if over else 1
    hists = [{} for _ in range(depth + 1)]
    for f in range(lo, depth + 1):
        a = f + t
        if not (_allowed(f, mod) and _allowed(a, mod)):
            continue
        if t == 0:
            rest = [1] + [0] * depth
        else:
            middle = [1] + [0] * depth
            for v in range(f + 1, a):
                if _allowed(v, mod):
                    middle = _add_value(middle, v, w)
            rest = [r - m for r, m in zip(_add_value(middle, a, w), middle)]
        for c in range(1, depth // f + 1):
            for n in range(c * f, depth + 1):
                if rest[n - c * f]:
                    hists[n][c] = hists[n].get(c, 0) + w * rest[n - c * f]
    return hists


def family_hists(depth, lo, mod, over):
    """The (2d, d) family, row 2d for 1 <= d <= depth // 2 and every other
    row empty: with floor f, the largest part d + f occurs once, so c parts
    f leave d - f(c + 1) to allowed parts above f, weighted w^2 for the
    largest and floor runs."""
    w = 2 if over else 1
    D = depth // 2
    hists = [{} for _ in range(depth + 1)]
    above = [1] + [0] * D
    for f in range(D, lo - 1, -1):
        if _allowed(f, mod):
            for d in range(1, D + 1):
                if not _allowed(d + f, mod):
                    continue
                for c in range(1, d // f):
                    cnt = above[d - f * (c + 1)]
                    if cnt:
                        hists[2 * d][c] = hists[2 * d].get(c, 0) + w * w * cnt
            above = _add_value(above, f, w)
    return hists
