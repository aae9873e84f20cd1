import json
from collections import Counter
from pathlib import Path

import pytest

from qpartitions.enumeration import (
    PartitionFilter,
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
    format_overpartition,
    gen_overpartitions,
    gen_partitions,
    is_ubar_counted,
)

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
    assert list(gen_partitions(8, PartitionFilter(exact_diff=4))) == [
        (6, 2), (5, 2, 1), (5, 1, 1, 1)
    ]
    assert list(gen_partitions(4, PartitionFilter(smallest_mult_min=2))) == [
        (2, 2), (2, 1, 1), (1, 1, 1, 1)
    ]


def test_gen_partitions_decreasing_lex():
    for n in (6, 9, 12):
        out = list(gen_partitions(n))
        assert out == sorted(out, reverse=True)
        assert len(out) == len(set(out)) == count_p(n)


def test_gen_partitions_filters_respected():
    cases = [
        PartitionFilter(min_part=3),
        PartitionFilter(excluded_modulus=2),
        PartitionFilter(exact_diff=2),
        PartitionFilter(smallest_mult_min=3),
        PartitionFilter(min_part=2, excluded_modulus=3, exact_diff=4),
    ]
    for f in cases:
        for n in (0, 7, 12):
            produced = list(gen_partitions(n, f))
            assert all(f.matches(p) for p in produced)
            assert all(sum(p) == n for p in produced if p)
            # exhaustive cross-check against post-filtering the full stream
            expected = [p for p in gen_partitions(n) if f.matches(p)]
            assert produced == expected


def test_empty_partition_filter_conventions():
    assert list(gen_partitions(0, PartitionFilter(min_part=5))) == [()]
    assert list(gen_partitions(0, PartitionFilter(excluded_modulus=2))) == [()]
    assert list(gen_partitions(0, PartitionFilter(exact_diff=0))) == []
    assert list(gen_partitions(0, PartitionFilter(smallest_mult_min=1))) == []


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
    assert format_overpartition(want[3]) == "2~+1"


def test_gen_overpartitions_filters():
    got = list(gen_overpartitions(2, PartitionFilter(smallest_mult_min=2)))
    assert got == [((1, False), (1, False)), ((1, True), (1, False))]
    got = list(gen_overpartitions(4, PartitionFilter(exact_diff=2)))
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
        assert count_pbar_diff(8, n) == sum(
            1 for _ in gen_overpartitions(8, PartitionFilter(exact_diff=n))
        )
    for m in (1, 2, 3):
        for n in range(1, 13):
            assert count_abar(m, n) == sum(
                1 for _ in gen_overpartitions(n, PartitionFilter(smallest_mult_min=m))
            )
            assert count_abar_diff(m, n, 2) == sum(
                1
                for _ in gen_overpartitions(
                    n, PartitionFilter(smallest_mult_min=m, exact_diff=2)
                )
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
            1
            for _ in gen_partitions(
                n,
                PartitionFilter(smallest_mult_min=2, exact_diff=2, excluded_modulus=3),
            )
        )


def test_counters_agree_with_streams():
    # the histogram sweeps and the lexicographic generators are independent
    # implementations; tie them together on a small grid
    for n in range(1, 19):
        for m in (1, 2, 3):
            assert count_a(m, n) == sum(
                1 for _ in gen_partitions(n, PartitionFilter(smallest_mult_min=m))
            )
        for t in (0, 1, 3):
            assert count_p_fixed_diff(n, t) == sum(
                1 for _ in gen_partitions(n, PartitionFilter(exact_diff=t))
            )
            assert count_a_diff(2, n, t) == sum(
                1
                for _ in gen_partitions(
                    n, PartitionFilter(smallest_mult_min=2, exact_diff=t)
                )
            )
        assert count_breg(3, n) == sum(
            1 for _ in gen_partitions(n, PartitionFilter(excluded_modulus=3))
        )


def test_counters_handle_small_n():
    assert count_a(2, 0) == 0
    assert count_pbar(0) == 1
    assert count_breg(3, 0) == 1
    assert count_p_fixed_diff(0, 0) == 0
    assert count_ubar(0) == 0
    assert count_a(3, -1) == 0


@pytest.mark.parametrize("over", [False, True])
@pytest.mark.parametrize("mod", [None, 2, 3])
def test_exact_target_diff_tallies_match_generators(mod, over):
    # each fixed-difference histogram (smallest-part multiplicity -> count)
    # against the lexicographic generators, t = 0 and N < t included;
    # unrestricted overpartitions stop at 26 (there are 2.3M up to 36)
    gen = gen_overpartitions if over else gen_partitions
    n_top = 26 if over and mod is None else 36
    for n in range(n_top + 1):
        for t in range(13):
            f = PartitionFilter(exact_diff=t, excluded_modulus=mod)
            want = Counter()
            for parts in gen(n, f):
                values = [p[0] for p in parts] if over else parts
                want[values.count(values[-1])] += 1
            assert _hists.get(n, diff=t, mod=mod, over=over) == want, (n, t)


@pytest.mark.parametrize("over", [False, True])
@pytest.mark.parametrize("mod", [None, 2, 3])
@pytest.mark.parametrize("lo", [1, 2, 3])
def test_plain_sweep_tallies_match_generators(lo, mod, over):
    # one sweep's histogram at every n against the lexicographic generators;
    # unrestricted overpartitions stop at 18, the rest at 30
    gen = gen_overpartitions if over else gen_partitions
    n_top = 18 if over and mod is None and lo == 1 else 30
    hists = _sweep_plain(n_top, lo, mod, over)
    assert len(hists) == n_top + 1
    for n in range(1, n_top + 1):
        want = Counter()
        for parts in gen(n, PartitionFilter(min_part=lo, excluded_modulus=mod)):
            values = [p[0] for p in parts] if over else parts
            want[values.count(values[-1])] += 1
        assert hists[n] == want, n


# Histograms at catalog scale, recorded from the sweep kernels before their
# leaf-run and single-copy fast paths existed; the generator cross-checks
# above stop at n <= 30 and N <= 36.
PINS = json.loads((Path(__file__).parent / "data" / "sweep_histograms.json").read_text())


@pytest.mark.parametrize("pin", PINS["diff"], ids=lambda e: str(e["args"]))
def test_exact_target_diff_tallies_match_recorded(pin):
    n = pin["args"][0]
    hists = _sweep_diff(*pin["args"])
    assert hists[n] == {c: cnt for c, cnt in pin["hist"]}
    assert not any(hists[:n])


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
