import json
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

from qpartitions import enumeration as en
from qpartitions.enumeration import (
    _hists,
    _sweep_diff,
    _sweep_plain,
    _sweep_ubar,
    count_Q,
    count_a,
    count_a_diff,
    count_abar,
    count_abar_diff,
    count_areg,
    count_areg_diff,
    count_breg,
    count_breg_diff,
    count_p,
    count_p_fixed_diff,
    count_p_star,
    count_pbar,
    count_pbar_diff,
    count_ubar,
)

from coin_change import family_hists, fixed_diff_hists, smallest_run_hists
from generators import gen_overpartitions, gen_partitions, is_ubar_counted

P_KNOWN = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135,
           176, 231, 297, 385, 490, 627]


def test_count_p_known_values():
    assert [count_p(n) for n in range(21)] == P_KNOWN
    assert count_p(-3) == 0
    assert count_p(0) == 1
    assert count_p(100) == 190569292
    assert count_p(200) == 3972999029388


def test_count_p_matches_enumeration():
    for n in range(41):
        assert count_p(n) == sum(1 for _ in gen_partitions(n))


def test_gen_partitions_order_and_examples():
    assert list(gen_partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(gen_partitions(0)) == [()]
    assert list(gen_partitions(8, exact_diff=4)) == [(6, 2), (5, 2, 1), (5, 1, 1, 1)]
    assert list(gen_partitions(4, smallest_mult_min=2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_gen_partitions_decreasing_lex():
    for n in (6, 9, 12):
        out = list(gen_partitions(n))
        assert out == sorted(out, reverse=True)
        assert len(out) == len(set(out)) == count_p(n)


def test_gen_partitions_filters_respected():
    def matches(parts, min_part=None, smallest_mult_min=None, exact_diff=None,
                excluded_modulus=None):
        # each filter read off the partition itself; the empty partition has
        # no smallest part
        if not parts:
            return exact_diff is None and smallest_mult_min is None
        return ((min_part is None or parts[-1] >= min_part)
                and (excluded_modulus is None or all(p % excluded_modulus for p in parts))
                and (exact_diff is None or parts[0] - parts[-1] == exact_diff)
                and (smallest_mult_min is None
                     or parts.count(parts[-1]) >= smallest_mult_min))

    cases = [
        {"min_part": 3},
        {"excluded_modulus": 2},
        {"exact_diff": 2},
        {"smallest_mult_min": 3},
        {"min_part": 2, "excluded_modulus": 3, "exact_diff": 4},
    ]
    for f in cases:
        for n in (0, 7, 12):
            produced = list(gen_partitions(n, **f))
            assert all(matches(p, **f) for p in produced)
            assert all(sum(p) == n for p in produced if p)
            # exhaustive cross-check against post-filtering the full stream
            expected = [p for p in gen_partitions(n) if matches(p, **f)]
            assert produced == expected


def test_empty_partition_filter_conventions():
    assert list(gen_partitions(0, min_part=5)) == [()]
    assert list(gen_partitions(0, excluded_modulus=2)) == [()]
    assert list(gen_partitions(0, exact_diff=0)) == []
    assert list(gen_partitions(0, smallest_mult_min=1)) == []


def test_count_p_fixed_diff():
    assert count_p_fixed_diff(6, 0) == 4
    assert count_p_fixed_diff(8, 4) == 3
    assert count_p_fixed_diff(2, 1) == 0  # no two-part spread of 1 sums to 2
    for n in range(1, 31):
        assert sum(count_p_fixed_diff(n, t) for t in range(n)) == count_p(n)


def test_count_a_examples():
    for n in range(1, 41):
        assert count_a(1, n) == count_p(n)
    assert count_a(3, 4) == 1
    assert count_a(3, 6) == 4
    assert [count_a(2, n) for n in range(1, 6)] == [0, 1, 1, 3, 3]


def test_count_a_monotone_and_vanishing():
    for m in range(1, 8):
        for n in range(1, 41):
            assert count_a(m + 1, n) <= count_a(m, n)
    for m in range(2, 9):
        for n in range(1, m):
            assert count_a(m, n) == 0


def test_count_a_diff():
    assert count_a_diff(1, 8, 4) == count_p_fixed_diff(8, 4) == 3
    assert count_a_diff(2, 4, 0) == 2
    for n in range(1, 26):
        assert count_a_diff(1, 2 * n, n) == count_a(2, n)


def test_count_Q():
    assert count_Q(2, 4, 6, "at_least") == 1
    assert count_Q(2, 3, 6, "at_least") == 0
    assert count_Q(2, 3, 10, "at_least") == 2
    assert count_Q(2, 4, 6, "exactly") == 0
    # the two conventions differ by the "smallest strictly larger" counts
    assert count_Q(2, 3, 10, "exactly") == 1  # {3, 3}; {6} has smallest 6
    with pytest.raises(ValueError):
        count_Q(2, 3, 10, "sometimes")


def test_count_p_star():
    assert count_p_star(2, 5) == 2
    assert count_p_star(3, 0) == 1
    for n in range(26):
        assert count_p_star(1, n) == count_p(n)


def test_overpartitions_of_three():
    got = list(gen_overpartitions(3))
    want = [
        ((3, False),),
        ((3, True),),
        ((2, False), (1, False)),
        ((2, True), (1, False)),
        ((2, False), (1, True)),
        ((2, True), (1, True)),
        ((1, False), (1, False), (1, False)),
        ((1, True), (1, False), (1, False)),
    ]
    assert got == want
    assert count_pbar(3) == 8


def test_gen_overpartitions_filters():
    got = list(gen_overpartitions(2, smallest_mult_min=2))
    assert got == [((1, False), (1, False)), ((1, True), (1, False))]
    got = list(gen_overpartitions(4, exact_diff=2))
    assert sorted(got) == sorted(
        [
            ((3, False), (1, False)),
            ((3, True), (1, False)),
            ((3, False), (1, True)),
            ((3, True), (1, True)),
        ]
    )


def test_count_pbar_values_and_evenness():
    assert [count_pbar(n) for n in range(5)] == [1, 2, 4, 8, 14]
    for n in range(1, 31):
        assert count_pbar(n) % 2 == 0
    for n in range(13):
        assert count_pbar(n) == sum(1 for _ in gen_overpartitions(n))


def test_count_abar_and_diffs():
    assert count_abar(2, 2) == 2
    assert count_pbar_diff(4, 2) == 4
    for n in range(11):
        assert count_pbar_diff(8, n) == sum(1 for _ in gen_overpartitions(8, exact_diff=n))
    for m in (1, 2, 3):
        for n in range(1, 13):
            assert count_abar(m, n) == sum(
                1 for _ in gen_overpartitions(n, smallest_mult_min=m)
            )
            assert count_abar_diff(m, n, 2) == sum(
                1 for _ in gen_overpartitions(n, smallest_mult_min=m, exact_diff=2)
            )


def test_ubar_conditions_and_values():
    assert count_ubar(2) == 0
    assert count_ubar(3) == 2
    assert count_ubar(4) == 0
    assert count_ubar(5) == 4
    assert is_ubar_counted(((2, False), (1, True)))
    assert is_ubar_counted(((7, False), (6, True), (2, True)))
    assert not is_ubar_counted(((7, False), (6, False), (2, True)))
    assert not is_ubar_counted(((7, False), (7, False), (2, True), (2, False)))
    assert is_ubar_counted(((7, False), (7, False), (2, True)))
    assert not is_ubar_counted(((3, True),))


def test_breg_counts():
    assert count_breg(2, 6) == 4
    assert count_breg_diff(2, 7, 4) == 1
    assert count_areg(2, 2, 4) == 1
    with pytest.raises(ValueError):
        count_breg_diff(2, 5, -1)
    # 2-regular counts match distinct-part counts (checked by enumeration)
    for n in range(1, 31):
        distinct = sum(
            1 for p in gen_partitions(n) if len(set(p)) == len(p)
        )
        assert count_breg(2, n) == distinct
    for n in range(1, 16):
        assert count_areg_diff(2, 3, n, 2) == sum(
            1 for _ in gen_partitions(n, smallest_mult_min=2, exact_diff=2, excluded_modulus=3)
        )


def test_counters_agree_with_streams():
    # the histogram sweeps and the lexicographic generators are independent
    # implementations; tie them together on a small grid
    for n in range(1, 19):
        for m in (1, 2, 3):
            assert count_a(m, n) == sum(
                1 for _ in gen_partitions(n, smallest_mult_min=m)
            )
        for t in (0, 1, 3):
            assert count_p_fixed_diff(n, t) == sum(1 for _ in gen_partitions(n, exact_diff=t))
            assert count_a_diff(2, n, t) == sum(
                1 for _ in gen_partitions(n, smallest_mult_min=2, exact_diff=t)
            )
        assert count_breg(3, n) == sum(1 for _ in gen_partitions(n, excluded_modulus=3))


def test_counters_handle_small_n():
    assert count_a(2, 0) == 0
    assert count_pbar(0) == 1
    assert count_breg(3, 0) == 1
    assert count_p_fixed_diff(0, 0) == 0
    assert count_ubar(0) == 0
    assert count_a(3, -1) == 0


def _no_sweeps(monkeypatch):
    # any sweep, of any key, fails the test; the class is patched, since
    # undoing an instance patch would leave a bound method on _hists
    def spy(self, key, n, *args):
        raise AssertionError(f"swept {key} for n = {n}")

    _hists.clear()
    monkeypatch.setattr(type(_hists), "_swept", spy)


@pytest.mark.parametrize("n", [0, -1, -7])
def test_cache_answers_sizes_below_one_without_sweeping(monkeypatch, n):
    # no partition of n < 1 has a smallest part, so no key has such a row
    _no_sweeps(monkeypatch)
    for kw in ({}, {"lo": 3}, {"mod": 2}, {"over": True}, {"diff": 0},
               {"diff": 2, "mod": 3, "over": True}):
        assert _hists.get(n, **kw) == {}, kw
    assert _hists.ubar(n) == 0


# (counter, arguments with "n" for the size, value at n = 0); every counter
# is 0 at n < 0
_AT_ZERO = [
    (count_p, ("n",), 1),
    (count_p_fixed_diff, ("n", 0), 0),
    (count_p_fixed_diff, ("n", 2), 0),
    (count_a, (1, "n"), 0),
    (count_a, (2, "n"), 0),
    (count_a_diff, (1, "n", 0), 0),
    (count_a_diff, (2, "n", 3), 0),
    (count_p_star, (1, "n"), 1),
    (count_p_star, (4, "n"), 1),
    (count_pbar, ("n",), 1),
    (count_pbar_diff, ("n", 0), 0),
    (count_pbar_diff, ("n", 1), 0),
    (count_abar, (1, "n"), 0),
    (count_abar, (3, "n"), 0),
    (count_abar_diff, (1, "n", 0), 0),
    (count_abar_diff, (2, "n", 2), 0),
    (count_ubar, ("n",), 0),
    (count_breg, (2, "n"), 1),
    (count_breg, (5, "n"), 1),
    (count_breg_diff, (2, "n", 0), 0),
    (count_breg_diff, (3, "n", 1), 0),
    (count_areg, (1, 2, "n"), 0),
    (count_areg, (2, 3, "n"), 0),
    (count_areg_diff, (1, 2, "n", 0), 0),
    (count_areg_diff, (2, 3, "n", 1), 0),
]


@pytest.mark.parametrize("counter, args, at_zero", _AT_ZERO,
                         ids=lambda x: x.__name__ if callable(x) else None)
@pytest.mark.parametrize("n", [0, -1, -7])
def test_counters_at_sizes_below_one(monkeypatch, counter, args, at_zero, n):
    _no_sweeps(monkeypatch)
    want = at_zero if n == 0 else 0
    assert counter(*[n if a == "n" else a for a in args]) == want


@pytest.mark.parametrize("convention, at_target_zero", [("at_least", 1), ("exactly", 0)])
def test_count_Q_at_targets_below_one(monkeypatch, convention, at_target_zero):
    # the target is n - l(k - 1): 0 at n = 4 for l = 2, k = 3
    _no_sweeps(monkeypatch)
    assert count_Q(2, 3, 4, convention) == at_target_zero
    assert count_Q(4, 5, 16, convention) == at_target_zero
    for n in (3, 0, -1, -7):
        assert count_Q(2, 3, n, convention) == 0, n


_MULT = "multiplicity bound must be positive"
_DIFF = "difference must be non-negative"
_MOD = "regularity modulus must be at least 2"
_AREG = "requires m >= 1 and l >= 2"
_Q_ARGS = "requires l >= 2 and k >= 3"


# Every argument check of every public counter, each at its boundary; n is
# the last positional argument but one for the counters with a difference.
@pytest.mark.parametrize("counter, args, message", [
    (count_p_fixed_diff, ("n", -1), _DIFF),
    (count_a, (0, "n"), _MULT),
    (count_a_diff, (0, "n", 1), _MULT),
    (count_a_diff, (1, "n", -1), _DIFF),
    (count_Q, (1, 3, "n"), _Q_ARGS),
    (count_Q, (2, 2, "n"), _Q_ARGS),
    (count_Q, (2, 3, "n", "bogus"), "unknown convention 'bogus'"),
    (count_p_star, (0, "n"), "minimum part must be positive"),
    (count_pbar_diff, ("n", -1), _DIFF),
    (count_abar, (0, "n"), _MULT),
    (count_abar_diff, (0, "n", 1), _MULT),
    (count_abar_diff, (1, "n", -1), _DIFF),
    (count_breg, (1, "n"), _MOD),
    (count_breg_diff, (1, "n", 1), _MOD),
    (count_breg_diff, (2, "n", -1), _DIFF),
    (count_areg, (0, 2, "n"), _AREG),
    (count_areg, (1, 1, "n"), _AREG),
    (count_areg_diff, (0, 2, "n", 1), _AREG),
    (count_areg_diff, (1, 1, "n", 1), _AREG),
    (count_areg_diff, (1, 2, "n", -1), _DIFF),
], ids=lambda x: x.__name__ if callable(x) else None)
@pytest.mark.parametrize("n", [0, 9])
def test_counters_reject_bad_arguments(counter, args, message, n):
    # checked before n is looked at, so n = 0 is no way around them
    with pytest.raises(ValueError) as err:
        counter(*[n if a == "n" else a for a in args])
    assert str(err.value) == message


def _generated(nmax, lo, mod, over, t=None):
    # every n <= nmax by the multiplicity of the smallest part, from the
    # lexicographic generators
    gen = gen_overpartitions if over else gen_partitions
    hists = []
    for n in range(nmax + 1):
        hist = Counter()
        for parts in gen(n, min_part=lo, excluded_modulus=mod, exact_diff=t):
            values = [p[0] for p in parts] if over else parts
            if values:
                hist[values.count(values[-1])] += 1
        hists.append(hist)
    return hists


@lru_cache(maxsize=None)
def _diff_oracle(mod, over):
    # (n_top, {(n, t): smallest-part multiplicity -> count}) from the
    # lexicographic generators, for 0 <= n <= n_top and t <= 12, so t = 0
    # and n < t are included; unrestricted overpartitions stop at 26 (there
    # are 2.3M up to 36).  Both fixed-difference kernels are checked on it.
    n_top = 26 if over and mod is None else 36
    want = {(n, t): hist for t in range(13)
            for n, hist in enumerate(_generated(n_top, 1, mod, over, t))}
    return n_top, want


@pytest.mark.parametrize("over", [False, True])
@pytest.mark.parametrize("mod", [None, 2, 3])
def test_exact_target_diff_tallies_match_generators(mod, over):
    # each exact-target read of (n, t), as the counters make it: first as a
    # lone read on an empty cache, which sweeps its own shape or, at n = 2t,
    # the (2d, d) family; then every n in ascending order, which regrows
    # each key from the sizes it already holds
    n_top, want = _diff_oracle(mod, over)
    for (n, t), hist in want.items():
        _hists.clear()
        assert _hists.get(n, mod=mod, diff=t, over=over) == hist, (n, t)
    _hists.clear()
    for n in range(n_top + 1):
        for t in range(13):
            assert _hists.get(n, mod=mod, diff=t, over=over) == want[n, t], (n, t)
    _hists.clear()


@pytest.mark.parametrize("over", [False, True])
@pytest.mark.parametrize("mod", [None, 2, 3])
def test_range_diff_tallies_match_generators(mod, over):
    # a range sweep of each t to each bound 0 .. n_top holds every n up to
    # it; bounds below t leave every histogram empty
    n_top, want = _diff_oracle(mod, over)
    for t in range(13):
        for nmax in range(n_top + 1):
            hists = _sweep_diff(nmax, t, 1, mod, over)
            assert len(hists) == nmax + 1
            assert hists == [want[n, t] for n in range(nmax + 1)], (nmax, t)


@pytest.mark.parametrize("over", [False, True])
@pytest.mark.parametrize("mod", [None, 2, 3])
def test_family_diff_tallies_match_generators(mod, over):
    # one (2d, d) family sweep (t None) holds row 2d for every d up to half
    # its bound; the bound 25 is odd, and odd rows stay empty
    n_top, want = _diff_oracle(mod, over)
    hists = _sweep_diff(25, None, 1, mod, over)
    assert hists == [want[n, n // 2] if n % 2 == 0 else {} for n in range(26)]


@pytest.mark.parametrize("over", [False, True])
@pytest.mark.parametrize("mod", [2, 3, 4, 5])
@pytest.mark.parametrize("lo", [1, 2])
def test_stride_family_rows_match_the_full_family(lo, mod, over):
    # a stride-mod family holds the full family's row 2d at every mod | d
    # and leaves the other rows empty; both against the coin-change count
    full = family_hists(80, lo, mod, over)
    assert _sweep_diff(80, None, lo, mod, over) == full
    assert _sweep_diff(80, None, lo, mod, over, mod) == [
        h if n % (2 * mod) == 0 else {} for n, h in enumerate(full)]


@pytest.mark.parametrize("mod", [2, 3])
def test_off_stride_family_read_is_the_full_count(mod):
    # a read off the stride of the family swept for a first read at
    # mod | d, then reads on the stride again, against the full family
    full = family_hists(80, 1, mod, False)
    _hists.clear()
    assert _hists.get(6 * mod * 2, mod=mod, diff=6 * mod) == full[12 * mod]
    for d in (6 * mod - 1, 6 * mod, 5 * mod, 5 * mod - 1):
        assert _hists.get(2 * d, mod=mod, diff=d) == full[2 * d], d
        assert count_breg_diff(mod, 2 * d, d) == sum(full[2 * d].values()), d
    _hists.clear()


@pytest.mark.parametrize("over", [False, True])
@pytest.mark.parametrize("mod", [None, 2, 3, 4, 5])
@pytest.mark.parametrize("lo", [1, 2])
def test_family_diff_matches_exact_target_at_every_d(lo, mod, over):
    # the count of each target 2d against the coin-change reference, which
    # shares no code with the kernels
    hists = _sweep_diff(80, None, lo, mod, over)
    assert len(hists) == 81
    want = family_hists(80, lo, mod, over)
    for n in range(81):
        assert hists[n] == want[n], n


@pytest.mark.parametrize("over", [False, True])
@pytest.mark.parametrize("mod", [None, 2, 3])
@pytest.mark.parametrize("lo", [1, 2, 3])
def test_plain_sweep_tallies_match_generators(lo, mod, over):
    # one sweep's histogram at every n against the lexicographic generators;
    # unrestricted overpartitions stop at 18, the rest at 30
    n_top = 18 if over and mod is None and lo == 1 else 30
    hists = _sweep_plain(n_top, lo, mod, over)
    assert len(hists) == n_top + 1
    for n, want in enumerate(_generated(n_top, lo, mod, over)):
        assert hists[n] == want, n


@lru_cache(maxsize=None)
def _floor_oracle(mod, over):
    # {(n, k): the lo = k histogram of n} for 2 <= k <= n <= 30, from one
    # pass of the generators over the partitions into parts >= 2: each one
    # joins the histogram of every k up to its smallest part
    want = {(n, k): Counter() for n in range(31) for k in range(2, n + 1)}
    gen = gen_overpartitions if over else gen_partitions
    for n in range(2, 31):
        for parts in gen(n, min_part=2, excluded_modulus=mod):
            values = [p[0] for p in parts] if over else parts
            for k in range(2, values[-1] + 1):
                want[n, k][values.count(values[-1])] += 1
    return want


@pytest.mark.parametrize("order", ["descending k", "ascending k", "deeper n"])
@pytest.mark.parametrize("over", [False, True])
@pytest.mark.parametrize("mod", [None, 3])
def test_floor_tables_match_generators(monkeypatch, mod, over, order):
    # every lo >= 2 read goes to one key per (mod, over), whose floors are
    # swept from the top down and extended downward on demand; each read
    # order reaches the tables another way: floor by floor, all floors at
    # once, or a second sweep from the top after a deeper n
    want = _floor_oracle(mod, over)
    ks = range(30, 1, -1) if order == "descending k" else range(2, 31)
    swept = []

    def spy(*args, _real=en._sweep_plain):
        swept.append(args)
        return _real(*args)

    monkeypatch.setattr(en, "_sweep_plain", spy)
    _hists.clear()
    if order == "deeper n":
        for k in ks:
            for n in range(15, k - 1, -1):
                assert _hists.get(n, lo=k, mod=mod, over=over) == want[n, k], (n, k)
    for k in ks:
        for n in range(30, k - 1, -1):
            assert _hists.get(n, lo=k, mod=mod, over=over) == want[n, k], (n, k)
    _hists.clear()
    # each floor once per bound, from the top down
    bounds = (16, 30) if order == "deeper n" else (30,)
    assert swept == [(b, f, mod, over, f + 1) for b in bounds for f in range(b, 1, -1)]


@pytest.mark.parametrize("mod", [None, 2, 3])
@pytest.mark.parametrize("lo", [1, 2, 3])
def test_overline_plain_sweep_matches_coin_change(lo, mod):
    # past the generators' reach (18 for unrestricted overpartitions), where
    # every floor's ending lists are split by the runs of taken values
    assert _sweep_plain(40, lo, mod, True) == smallest_run_hists(40, lo, mod, True)


# (nmax, lo, mod): lo above nmax; nmax 0, 1 and lo; lo a multiple of mod,
# so that the least allowed value is lo + 1; and wider shapes with lo > 1.
# Then shapes whose deepest floor lo has exactly 0 to 4 allowed middle values
# (0 to 3 are all taken into the ending lists; 4 leaves one walked value,
# equal to the largest prefix sum), and shapes where mod removes the first,
# the second, the third, or the first and third of lo's three least values.
EDGE_SHAPES = [(3, 5, None), (4, 6, 3), (0, 1, None), (1, 1, None), (0, 3, 2),
               (1, 2, None), (3, 3, None), (4, 4, 2), (6, 6, 3), (20, 4, 2),
               (20, 6, 3), (24, 2, 2), (18, 2, None), (20, 3, 4),
               (8, 4, None), (9, 4, None), (10, 4, None), (11, 4, None), (12, 4, None),
               (14, 5, 3), (13, 4, 3), (15, 5, 4), (15, 5, 2)]


@pytest.mark.parametrize("over", [False, True])
@pytest.mark.parametrize("shape", EDGE_SHAPES, ids=str)
def test_plain_sweep_edge_shapes_match_generators(shape, over):
    nmax, lo, mod = shape
    assert _sweep_plain(nmax, lo, mod, over) == _generated(nmax, lo, mod, over)


@pytest.mark.parametrize("over", [False, True])
@pytest.mark.parametrize("shape", EDGE_SHAPES, ids=str)
def test_range_diff_edge_shapes_match_generators(shape, over):
    # t = 0, middle differences, and t at and above nmax (every row empty)
    nmax, lo, mod = shape
    for t in sorted({0, 1, 2, 5, nmax, nmax + 3}):
        got = _sweep_diff(nmax, t, lo, mod, over)
        assert got == _generated(nmax, lo, mod, over, t), t


# Histograms at catalog scale, recorded from an earlier version of the sweep
# kernels; the generator cross-checks above stop at n <= 30 and N <= 36.
PINS = json.loads((Path(__file__).parent / "data" / "sweep_histograms.json").read_text())


# (120, 60) is left out here: every read of it goes to the (2n, n) family,
# whose row test_family_diff_row_matches_recorded checks
@pytest.mark.parametrize("pin", [e for e in PINS["diff"] if e["args"][:2] != [120, 60]],
                         ids=lambda e: str(e["args"]))
def test_range_diff_tallies_match_recorded(pin):
    n = pin["args"][0]
    hists = _sweep_diff(*pin["args"])
    assert hists[n] == {c: cnt for c, cnt in pin["hist"]}


def test_family_diff_row_matches_recorded():
    # remark7's deepest row, from the one family sweep that reaches it
    (pin,) = [e for e in PINS["diff"] if e["args"] == [120, 60, 1, None, False]]
    hists = _sweep_diff(120, None, 1, None, False)
    assert hists[120] == {c: cnt for c, cnt in pin["hist"]}


# (nmax, t, lo, mod, over): the row shapes `seq p_diff` and `seq a_diff`
# read, then shapes with overlines, a modulus or lo > 1 at the same scale;
# last, t <= 4 without overlines, which leaves at most three middle values
# per floor, so the walk takes every one into its ending lists
@pytest.mark.parametrize("args", [(66, 20, 1, None, False), (62, 15, 1, None, False),
                                  (60, 7, 2, None, True), (56, 9, 1, 3, True),
                                  (60, 12, 2, 4, False), (50, 6, 1, None, True)]
                         + [(60, t, lo, mod, False) for lo, mod in ((1, 2), (1, 3), (2, None), (2, 3))
                            for t in (1, 2, 3, 4)], ids=str)
def test_range_diff_matches_exact_target_at_every_n(args):
    # against the coin-change count of each target n
    nmax = args[0]
    hists = _sweep_diff(*args)
    want = fixed_diff_hists(*args)
    for n in range(nmax + 1):
        assert hists[n] == want[n], n


def test_plain_sweep_tallies_match_recorded():
    (pin,) = PINS["plain"]
    hists = _sweep_plain(*pin["args"])
    assert hists == [{c: cnt for c, cnt in h} for h in pin["hists"]]
    # the recurrence is independent of both the sweep and the recording
    assert [sum(h.values()) for h in hists[1:]] == [
        count_p(n) for n in range(1, len(hists))
    ]


# u-bar counts for n <= 28, recorded from the overpartition generator
# filtered by is_ubar_counted, before the weighted sweep replaced it.
UBAR_PINS = json.loads((Path(__file__).parent / "data" / "ubar_counts.json").read_text())["ubar"]


def test_ubar_sweep_matches_recorded():
    assert _sweep_ubar(len(UBAR_PINS) - 1) == UBAR_PINS
    _hists.clear()
    assert [count_ubar(n) for n in range(len(UBAR_PINS))] == UBAR_PINS


def test_ubar_sweep_matches_generator():
    # the weights against the side conditions applied to every overpartition
    totals = _sweep_ubar(26)
    for n in range(27):
        want = sum(1 for op in gen_overpartitions(n) if is_ubar_counted(op))
        assert totals[n] == want, n
