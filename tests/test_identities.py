import pytest

from qpartitions import cli
from qpartitions import closed_forms as cf
from qpartitions import enumeration as en
from qpartitions.enumeration import (
    PartitionFilter,
    _sweep_plain,
    _sweep_ubar,
    gen_overpartitions,
    gen_partitions,
)
from qpartitions.identities import (
    UnknownIdentityError,
    VerificationReport,
    bijection_over1,
    bijection_prop3,
    bijection_prop3_inverse,
    get_identity,
    registry,
    verify,
)
from qpartitions.qobjects import Monomial, poch_infinite

EXPECTED_IDS = [
    "prop1", "prop2", "prop3", "thmG1", "thm_a3", "thm_a4", "eq_am",
    "thm_am", "thm_and", "cauchy", "cauchy_cor", "heine", "heine2",
    "qbinthm", "over_a2", "over1", "over_gen", "reg_a2", "reg_div",
    "reg_odd", "reg_nondiv", "remark7", "ubar_gf",
]

# the grid text of every default run, as the catalog has always reported it
DEFAULT_GRIDS = {
    "prop1": "1 <= n <= 200",
    "prop2": "1 <= n <= 25",
    "prop3": "2 <= m <= 5, 1 <= n <= 25",
    "thmG1": "2 <= m <= 6, 1 <= n <= 60",
    "thm_a3": "1 <= n <= 120",
    "thm_a4": "1 <= n <= 120",
    "eq_am": "1 <= m <= 6, coefficients below 60",
    "thm_am": "2 <= m <= 6, coefficients below 60",
    "thm_and": "1 <= m < l <= 8, coefficients below 60",
    "cauchy": "a, t monomials, coefficients below 50",
    "cauchy_cor": "t monomial, coefficients below 50",
    "heine": "monomial grid with c in {0, q^(e_t+1)}, coefficients below 50",
    "heine2": "monomial grid with c = q^(e_b+e_z+{0,1}), coefficients below 50",
    "qbinthm": "0 <= n <= 8, z monomial, exact polynomials",
    "over_a2": "1 <= n <= 20",
    "over1": "1 <= n <= 16",
    "over_gen": "2 <= m <= 4, 1 <= n <= 14",
    "reg_a2": "1 <= n <= 60",
    "reg_div": "m=2: l in 2..5, n <= 48; m=3: l in 2..3, n <= 24 (l | n only)",
    "reg_odd": "odd n <= 31",
    "reg_nondiv": "2 <= m <= 4, l in 2..4, n <= 30 with l not dividing n",
    "remark7": "1 <= n <= 60",
    "ubar_gf": "coefficients 1 <= n < 26",
}


def test_registry_shape():
    idents = registry()
    assert len(idents) == 23
    assert [i.id for i in idents] == EXPECTED_IDS
    assert len({i.id for i in idents}) == 23
    for ident in idents:
        assert ident.kind in ("countwise", "serieswise")
        assert ident.statement
        assert isinstance(ident.bound, int) and ident.bound > 0
        assert callable(ident.grid) and callable(ident.points)
        # sides belong to countwise entries; serieswise cases carry both
        assert callable(ident.sides) == (ident.kind == "countwise")


def test_default_grids_without_running():
    assert list(DEFAULT_GRIDS) == EXPECTED_IDS
    for ident in registry():
        assert ident.grid(ident.bound, False) == DEFAULT_GRIDS[ident.id]


def test_skipped_report_shows_default_grid():
    for identity_id, grid in DEFAULT_GRIDS.items():
        r = verify(identity_id, to=-1, order=0)
        assert r.status == "skipped" and r.grid == grid, identity_id


def test_unknown_identity():
    with pytest.raises(UnknownIdentityError):
        get_identity("nope")


@pytest.mark.parametrize("identity_id", EXPECTED_IDS)
def test_every_entry_runs_on_reduced_grid(identity_id):
    report = verify(identity_id, to=6, order=12)
    assert report.status in ("verified", "refuted")
    assert report.points > 0
    assert report.grid
    if report.status == "refuted":
        assert identity_id == "remark7"


def test_verify_prop1_small():
    r = verify("prop1", to=40)
    assert r.status == "verified"
    assert r.points == 40
    assert r.counterexamples == []
    assert r.seconds >= 0


def test_verify_determinism():
    a = verify("prop3", to=10)
    b = verify("prop3", to=10)
    assert a.to_json_dict()["counterexamples"] == b.to_json_dict()["counterexamples"]
    assert a.points == b.points == 40


def test_reg_div_refutes_without_hypothesis():
    r = verify("reg_div", to=12, include_nondivisible=True)
    assert r.status == "refuted"
    first = r.counterexamples[0]
    # the first mismatch is the documented odd case: b_2(2n, n) = 0
    assert first["params"] == {"m": 2, "l": 2, "n": 3}
    assert first["lhs"] == 1 and first["rhs"] == 0
    # evaluated deepest n first, reported in grid order
    grid = [(2, l, n) for l in (2, 3, 4, 5) for n in range(1, 13)]
    grid += [(3, l, n) for l in (2, 3) for n in range(1, 7) if n % l == 0]
    found = [tuple(ce["params"].values()) for ce in r.counterexamples]
    assert found == sorted(found, key=grid.index)
    clean = verify("reg_div", to=12)
    assert clean.status == "verified"


def test_remark7_refutes_exactly_off_parity():
    r = verify("remark7", to=24)
    assert r.status == "refuted"
    bad = {ce["params"]["n"] for ce in r.counterexamples}
    assert bad == {1, 2} | set(range(3, 25, 2))
    for ce in r.counterexamples:
        assert ce["rhs"] - ce["lhs"] == 1


def test_skipped_report_on_impossible_override():
    # the fixed-difference closed form rejects l <= m; an order override of
    # zero is rejected upstream as a window error
    r = verify("eq_am", order=0)
    assert r.status == "skipped"
    assert r.reason
    assert r.counterexamples == []
    # out-of-range overrides are rejected before the grid runs
    for identity_id, kw in (("prop2", {"to": -1}), ("qbinthm", {"order": 0})):
        r = verify(identity_id, **kw)
        assert r.status == "skipped" and r.points == 0 and r.reason


def test_verify_propagates_runner_faults(monkeypatch):
    # a fault inside a counter is not an impossible override: it must
    # surface instead of turning into a skipped report
    def broken(*args):
        raise ValueError("sweep fault")

    monkeypatch.setattr(en, "_sweep_plain", broken)
    en._hists.clear()
    with pytest.raises(ValueError, match="sweep fault"):
        verify("thmG1")


@pytest.fixture
def record_sweeps(monkeypatch):
    """Start a cold cache whose sweeps are logged; tally=False records the
    schedule alone, caching empty histograms (cleared again on teardown)."""

    def start(tally=True):
        calls = []
        for name, empty in (("_sweep_plain", {}), ("_sweep_diff", {}), ("_sweep_ubar", 0)):
            def spy(*args, _real=getattr(en, name), _name=name, _empty=empty):
                calls.append((_name, args))
                return _real(*args) if tally else [_empty] * (args[0] + 1)

            monkeypatch.setattr(en, name, spy)
        en._hists.clear()
        return calls

    yield start
    en._hists.clear()


def test_sweep_budget(record_sweeps):
    calls = record_sweeps()
    assert verify("thmG1").status == "verified"
    plain = [args for name, args in calls if name == "_sweep_plain"]
    assert [a for a in plain if a[1:] == (1, None, False)] == [(60, 1, None, False)]
    keys = [a[1:] for a in plain]
    assert len(keys) == len(set(keys))  # every key (the Q_{l,k} ones too) once

    # sides that read past n (n + 1, n + 2), and a grid whose last points
    # are not its deepest, still sweep each plain key once, to its depth
    for identity_id, incl, depths in (
        ("over_a2", False, {(1, None, True): 21}),
        ("reg_a2", False, {(1, 2, False): 62}),
        ("reg_div", False, {(1, l, False): 48 for l in (2, 3, 4)} | {(1, 5, False): 45}),
        ("reg_div", True, {(1, l, False): 48 for l in (2, 3, 4, 5)}),
    ):
        calls = record_sweeps()
        assert verify(identity_id, include_nondivisible=incl).status in ("verified", "refuted")
        plain = [args for name, args in calls if name == "_sweep_plain"]
        assert sorted(a[1:] for a in plain) == sorted(depths), identity_id
        assert {a[1:]: a[0] for a in plain} == depths, identity_id

    calls = record_sweeps()
    assert verify("remark7").status == "refuted"
    diffs = [args for name, args in calls if name == "_sweep_diff"]
    assert sorted(a[:2] for a in diffs) == [(2 * n, n) for n in range(1, 61)]

    # an ascending library loop still regrows with headroom: no more sweeps,
    # and none deeper, than 16, 24, ..., 56, 64
    calls = record_sweeps(tally=False)
    [en.count_a(2, n) for n in range(1, 61)]
    bounds = [args[0] for _, args in calls]
    assert len(bounds) <= 7 and max(bounds) <= 64


def test_ubar_counts_sweep_without_the_generator(record_sweeps, monkeypatch, capsys):
    def no_generator(*args, **kwargs):
        raise AssertionError("u-bar counts must not enumerate overpartitions")

    monkeypatch.setattr(en, "gen_overpartitions", no_generator)
    calls = record_sweeps()
    assert verify("over_a2").status == "verified"
    assert verify("ubar_gf").status == "verified"
    depths = [args[0] for name, args in calls if name == "_sweep_ubar"]
    assert 1 <= len(depths) <= 2 and max(depths) <= 32

    en._hists.clear()
    assert cli.main(["seq", "ubar", "--from", "1", "--to", "25"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [[str(n), str(cf.gf_ubar(26).coeff(n))] for n in range(1, 26)]


def _witnesses(key, m, order):
    """The closed form whose q^n coefficient is the >= m tally of key at n,
    with n < order; None where the repository holds none."""
    if key == "ubar":
        return cf.gf_ubar(order) if m == 1 else None
    lo, mod, over = key
    if over:
        return cf.gf_abar_m(m, order) if (lo, mod) == (1, None) else None
    if mod is not None:
        if lo != 1:
            return None
        return cf.gf_breg(mod, order) if m == 1 else cf.gf_areg(m, mod, order)
    if lo == 1:
        return cf.gf_a_m_sum(m, order)
    return poch_infinite(Monomial(1, lo), 1, order).inverse(order) if m == 1 else None


def test_every_swept_key_has_an_independent_witness(record_sweeps, monkeypatch):
    # The (key, depth) pairs and the >= m tallies the default catalog reads,
    # from a run with the sweeps stubbed out; each is then swept for real
    # (the kernels imported above, not the stubs) and checked against a
    # closed form, so that a kernel fault shared by both sides of an
    # identity (over_a2, reg_a2) still shows.
    reads = {}
    last = []
    get = en._HistCache.get

    def spy_get(self, n, **kw):  # the plain key of the read that follows
        plain = kw.get("diff") is None
        last[:] = [(kw.get("lo", 1), kw.get("mod"), kw.get("over", False))] if plain else []
        return get(self, n, **kw)

    def spy_total(hist, m=1, _real=en._total):
        if last:
            reads.setdefault(last[0], set()).add(m)
        return _real(hist, m)

    monkeypatch.setattr(en._HistCache, "get", spy_get)
    monkeypatch.setattr(en, "_total", spy_total)
    calls = record_sweeps(tally=False)
    for ident in registry():
        verify(ident.id)
    reads["ubar"] = {1}
    swept = {(args[1:], args[0]) for name, args in calls if name == "_sweep_plain"}
    swept |= {("ubar", args[0]) for name, args in calls if name == "_sweep_ubar"}
    assert {key for key, _ in swept} == set(reads)

    for key, depth in sorted(swept, key=str):
        if key == "ubar":
            hists = [{1: t} for t in _sweep_ubar(depth)]
        else:
            hists = _sweep_plain(depth, *key)
        for m in sorted(reads[key] | {1}):
            witness = _witnesses(key, m, depth + 1)
            assert witness is not None, (key, m)
            for n in range(1, depth + 1):
                got = sum(cnt for c, cnt in hists[n].items() if c >= m)
                assert got == witness.coeff(n), (key, depth, m, n)
        if key == (1, None, False):
            assert [sum(h.values()) for h in hists[1:]] == [
                en.count_p(n) for n in range(1, depth + 1)
            ]


def test_report_invariants():
    with pytest.raises(ValueError):
        VerificationReport("x", "g", "refuted", 1, [], 0.0)
    with pytest.raises(ValueError):
        VerificationReport("x", "g", "verified", 1, [{"params": {}, "lhs": 0, "rhs": 1}], 0.0)


def test_json_dict_round_trips():
    import json

    r = verify("remark7", to=6)
    blob = json.dumps(r.to_json_dict())
    back = json.loads(blob)
    assert back["identity"] == "remark7"
    assert back["status"] == "refuted"
    assert all(isinstance(ce["lhs"], str) for ce in back["counterexamples"])


# ----------------------------------------------------------------------
# bijections
# ----------------------------------------------------------------------


def test_bijection_prop3_examples():
    assert bijection_prop3((2, 2), 2) == (6, 2)
    assert bijection_prop3((1, 1, 1, 1), 2) == (5, 1, 1, 1)
    assert bijection_prop3_inverse((6, 2), 2) == (2, 2)
    assert bijection_prop3_inverse((5, 1, 1, 1), 2) == (1, 1, 1, 1)


def test_bijection_prop3_domain_errors():
    with pytest.raises(ValueError):
        bijection_prop3((3, 1), 2)  # smallest occurs once
    with pytest.raises(ValueError):
        bijection_prop3((1, 3), 2)  # not non-increasing
    with pytest.raises(ValueError):
        bijection_prop3_inverse((5, 1, 1), 2)  # odd total
    with pytest.raises(ValueError):
        bijection_prop3_inverse((4, 2, 2), 2)  # difference is not half the sum


def test_bijection_prop3_round_trip_and_coverage():
    for m in range(2, 5):
        for n in range(1, 21):
            sources = list(gen_partitions(n, PartitionFilter(smallest_mult_min=m)))
            images = [bijection_prop3(p, m) for p in sources]
            for src, img in zip(sources, images):
                assert sum(img) == 2 * n
                assert img[0] - img[-1] == n
                assert bijection_prop3_inverse(img, m) == src
            targets = list(
                gen_partitions(2 * n, PartitionFilter(smallest_mult_min=m - 1, exact_diff=n))
            )
            assert sorted(images) == sorted(targets)


def test_bijection_over1_examples():
    assert bijection_over1(((1, False), (1, False)), 2) == (
        ((3, False), (1, False)),
        ((3, True), (1, False)),
    )
    assert bijection_over1(((1, True), (1, False)), 2) == (
        ((3, False), (1, True)),
        ((3, True), (1, True)),
    )


def test_bijection_over1_domain_errors():
    with pytest.raises(ValueError):
        bijection_over1(((2, False), (1, False)), 3)  # smallest occurs once
    with pytest.raises(ValueError):
        bijection_over1(((1, False), (1, False)), 3)  # wrong total
    with pytest.raises(ValueError):
        bijection_over1(((1, False), (1, True)), 2)  # overline not first


def test_bijection_over1_exact_double_cover():
    for n in range(1, 13):
        sources = list(gen_overpartitions(n, PartitionFilter(smallest_mult_min=2)))
        images = []
        for src in sources:
            plain, marked = bijection_over1(src, n)
            assert plain != marked
            images += [plain, marked]
        targets = list(gen_overpartitions(2 * n, PartitionFilter(exact_diff=n)))
        assert len(images) == len(set(images))
        assert sorted(images) == sorted(targets)
