import pytest

from qpartitions import cli, identities
from qpartitions import closed_forms as cf
from qpartitions import enumeration as en
from qpartitions.enumeration import _sweep_diff, _sweep_plain, _sweep_ubar
from qpartitions.identities import (
    Identity,
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
from qpartitions.series import LaurentSeries, WindowError

from coin_change import family_hists, fixed_diff_hists, smallest_run_hists
from generators import gen_overpartitions, gen_partitions
from test_trace_hooks import _trace_child

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


def test_empty_grid_is_skipped_over_the_requested_grid():
    # a grid with no points checks nothing: skipped, with the grid that was
    # asked for, not the default one
    for identity_id, kw in (("reg_div", {"to": 1}), ("prop1", {"to": 0}),
                            ("remark7", {"to": 0})):
        r = verify(identity_id, **kw)
        assert (r.status, r.points, r.reason) == ("skipped", 0, "the grid has no points")
        assert r.grid == get_identity(identity_id).grid(kw["to"], False)
    assert verify("reg_div", to=2).status == "verified"


def test_verify_reports_runner_faults_as_errors(monkeypatch):
    # a fault inside a counter is not an impossible override: it must
    # surface as an error report, never as a skipped or refuted one
    def broken(*args):
        raise ValueError("sweep fault")

    monkeypatch.setattr(en, "_sweep_plain", broken)
    en._hists.clear()
    r = verify("thmG1")
    assert (r.status, r.points, r.counterexamples) == ("error", 0, [])
    assert r.reason == "ValueError: sweep fault"
    assert r.grid == DEFAULT_GRIDS["thmG1"]


def _faulty_stub(identity_id, kind, fault):
    # an entry whose grid checks one good point, then raises the fault
    def points(bound, incl):
        yield {"n": 1} if kind == "countwise" else ({}, _poly([1]), _poly([1]), range(1))
        raise fault

    return Identity(identity_id, kind, "s", 5, lambda bound, incl: f"n <= {bound}", points,
                    lambda bound: (lambda n: n, lambda n: n))


FAULTS = {
    "window": (WindowError("exponent 59 outside known window [1, 59)"),
               "WindowError: exponent 59 outside known window [1, 59)"),
    "zero-division": (ZeroDivisionError("division by zero"),
                      "ZeroDivisionError: division by zero"),
}


@pytest.mark.parametrize("kind", ["countwise", "serieswise"])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_while_the_grid_runs_is_an_error_report(monkeypatch, kind, fault):
    # a series-layer error and any other exception alike: the bounds were
    # checked up front, so whatever the grid raises is a fault
    fault, reason = FAULTS[fault]
    monkeypatch.setattr(identities, "_REGISTRY", [_faulty_stub("stub", kind, fault)])
    r = verify("stub", to=4, order=4)
    assert (r.status, r.points, r.counterexamples, r.reason) == ("error", 0, [], reason)
    assert r.grid == "n <= 4"  # the requested grid, which the bound checks accepted
    assert r.to_json_dict()["status"] == "error"


def _walk_grid(cases):
    # The serieswise comparison exponent by exponent: below a side's min_exp
    # it reads 0, past its window it raises.
    npts, ces = 0, []
    for params, lhs, rhs, exps in cases:
        for e in exps:
            npts += 1
            lv = lhs.coeff(e)
            rv = rhs.coeff(e)
            if lv != rv:
                ces.append({"params": {**params, "n": e}, "lhs": lv, "rhs": rv})
    return npts, ces


_BASE = [3 * e + 1 for e in range(20)]


def _poly(coeffs, min_exp=0):
    return LaurentSeries(min_exp, tuple(coeffs), min_exp + len(coeffs))


def test_series_grid_fast_path_matches_the_walk(monkeypatch):
    wrong = list(_BASE)
    wrong[7], wrong[12] = 0, wrong[12] + 5
    late = _poly(_BASE[3:], 3)  # min_exp above the grid start: reads 0 there
    cases = [
        ({"k": "equal"}, _poly(_BASE), _poly(list(_BASE)), range(20)),
        ({"k": "interior"}, _poly(_BASE), _poly(wrong), range(20)),
        ({"k": "sub-range"}, _poly(_BASE), _poly(wrong), range(5, 15)),
        ({"k": "outside"}, _poly(_BASE), _poly(wrong), range(8, 12)),
        ({"k": "first"}, _poly(_BASE), _poly(wrong), range(7, 12)),
        ({"k": "last"}, _poly(_BASE), _poly(wrong), range(8, 13)),
        ({"k": "late"}, late, _poly([0, 0, 0] + _BASE[3:]), range(20)),
        ({"k": "late, differs"}, late, _poly(_BASE), range(1, 20)),
        ({"k": "short, covered"}, _poly(_BASE), _poly(_BASE[:10]), range(2, 10)),
        ({"k": "empty"}, _poly(_BASE), _poly(wrong), range(0)),
    ]
    want = _walk_grid(cases)
    walked = []
    coeff = LaurentSeries.coeff

    def spy(s, n):
        walked.append(n)
        return coeff(s, n)

    monkeypatch.setattr(LaurentSeries, "coeff", spy)
    got = identities._series_grid(cases)
    assert got == want
    assert got[0] == 20 + 20 + 10 + 4 + 5 + 5 + 20 + 19 + 8
    # counterexamples in grid order, a late side reading 0 below its min_exp
    assert [(ce["params"]["k"], ce["params"]["n"], ce["lhs"], ce["rhs"]) for ce in got[1]] == [
        ("interior", 7, 22, 0), ("interior", 12, 37, 42),
        ("sub-range", 7, 22, 0), ("sub-range", 12, 37, 42),
        ("first", 7, 22, 0), ("last", 12, 37, 42),
        ("late, differs", 1, 0, 4), ("late, differs", 2, 0, 7),
    ]
    # only the cases that disagree are walked, both sides per exponent
    assert len(walked) == 2 * (20 + 10 + 5 + 5 + 19)


@pytest.mark.parametrize("short_sides", ["lhs", "rhs", "both"])
def test_series_grid_short_window_raises_the_walks_error(monkeypatch, short_sides):
    wrong = list(_BASE)
    wrong[3] = 0  # a mismatch before the window ends changes nothing
    sides = {"lhs": [_poly(wrong[:15]), _poly(_BASE)],
             "rhs": [_poly(_BASE), _poly(wrong[:15])],
             "both": [_poly(_BASE[:15]), _poly(_BASE[:15])]}[short_sides]
    cases = [({}, _poly(_BASE), _poly(_BASE), range(20)), ({}, *sides, range(20))]
    with pytest.raises(WindowError) as want:
        _walk_grid(cases)
    with pytest.raises(WindowError) as got:
        identities._series_grid(cases)
    assert str(got.value) == str(want.value) == "exponent 15 outside known window [0, 15)"
    # through the engine: an error report whose reason is the walk's text
    stub = Identity("stub", "serieswise", "s", 20, lambda w, incl: f"below {w}",
                    lambda w, incl: iter(cases))
    monkeypatch.setattr(identities, "_REGISTRY", [stub])
    r = verify("stub")
    assert (r.status, r.points, r.reason) == ("error", 0, f"WindowError: {want.value}")


@pytest.fixture
def record_sweeps(monkeypatch):
    """Start a cold cache whose sweeps are logged; tally=False records the
    schedule alone, caching empty histograms (cleared again on teardown).
    A results list, if given, receives each sweep's (name, result)."""

    def start(tally=True, results=None):
        calls = []
        for name, empty in (("_sweep_plain", {}), ("_sweep_diff", {}), ("_sweep_ubar", 0)):
            def spy(*args, _real=getattr(en, name), _name=name, _empty=empty):
                calls.append((_name, args))
                result = _real(*args) if tally else [_empty] * (args[0] + 1)
                if results is not None:
                    results.append((_name, result))
                return result

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
    # the Q_{l,k} reads share one key, whose sweep walks the floors from
    # the top down once, to the deepest target n - 2l = 56 of the first
    # read (k = 3); remark7's p*_m reads then add floor 2 alone
    floors = [a for a in plain if a[1:] != (1, None, False)]
    assert floors == [(56, f, None, False, f + 1) for f in range(56, 2, -1)]
    del calls[:]
    assert verify("remark7").status == "refuted"
    assert [args for name, args in calls if name == "_sweep_plain"] == [(56, 2, None, False, 3)]

    # a grid whose last points are not its deepest still sweeps each plain
    # key once, to its depth; over_a2 and reg_a2 sweep only their left side
    for identity_id, incl, depths in (
        ("over_a2", False, {(1, None, True): 20}),
        ("reg_a2", False, {(1, 2, False): 60}),
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
    # each shape is read at 2n alone, so all of them share the (2n, n)
    # family key: one family sweep (t None) over every size, whose first
    # read is n = 120
    assert diffs == [(120, None, 1, None, False)]
    # on its own, remark7 walks every floor from the top down to 2 once
    plain = [args for name, args in calls if name == "_sweep_plain"]
    assert plain == [(56, f, None, False, f + 1) for f in range(56, 1, -1)]
    # in catalog order prop2 has swept the family to 50 already, so remark7
    # regrows it once
    calls = record_sweeps(tally=False)
    verify("prop2")
    assert ("_sweep_diff", (50, None, 1, None, False)) in calls
    del calls[:]
    verify("remark7")
    diffs = [args for name, args in calls if name == "_sweep_diff"]
    assert diffs == [(120, None, 1, None, False)]

    # an ascending library loop still regrows with headroom: no more sweeps,
    # and none deeper, than 16, 24, ..., 56, 64
    calls = record_sweeps(tally=False)
    [en.count_a(2, n) for n in range(1, 61)]
    bounds = [args[0] for _, args in calls]
    assert len(bounds) <= 7 and max(bounds) <= 64


def test_lone_floor_read_sweeps_no_floor_below_it(record_sweeps, capsys):
    # seq p_star --m 20 reads lo = 20 alone: the floors from the top down
    # to 20, each once, which tally every partition into parts >= 20 once,
    # as many as the lo = 20 sweep alone makes
    results = []
    calls = record_sweeps(results=results)
    assert cli.main(["seq", "p_star", "--m", "20", "--from", "0", "--to", "100"]) == 0
    assert [args for _, args in calls] == [(100, f, None, False, f + 1) for f in range(100, 19, -1)]
    tallied = sum(sum(h.values()) for _, hists in results for h in hists)
    assert tallied == sum(sum(h.values()) for h in _sweep_plain(100, 20, None, False))
    capsys.readouterr()


def test_every_sweep_returns_per_n_histograms(record_sweeps):
    # perfbench's trace counts a sweep's tallies as the sum of the values of
    # the histograms it returns, so every mode (plain keys, floor sweeps,
    # ranged shapes, families and stride families) returns one
    # dict[int, int] per n up to its bound, holding its own increments
    results = []
    calls = record_sweeps(results=results)
    for identity_id in ("thmG1", "remark7", "reg_div"):
        assert verify(identity_id).status in ("verified", "refuted")
    assert len(results) == len(calls)
    for (name, args), (_, result) in zip(calls, results):
        assert type(result) is list and len(result) == args[0] + 1, (name, args)
        for h in result:
            assert type(h) is dict, (name, args)
            assert all(type(c) is int and type(v) is int for c, v in h.items()), (name, args)
    modes = {(name, len(args), args[1] is None) for name, args in calls}
    assert modes == {("_sweep_plain", 4, False), ("_sweep_plain", 5, False),
                     ("_sweep_diff", 5, True), ("_sweep_diff", 6, True)}
    # the tracer's formula: the floor sweeps count each partition of
    # n <= 56 into parts >= 2 once, p(n) - p(n - 1) of them for each n
    tracer = _trace_child().Tracer("verify")
    for (name, args), (_, result) in zip(calls, results):
        if len(args) == 5 and name == "_sweep_plain":
            tracer._after_sweep(args, {}, result)
    assert tracer.counters["tallied"] == en.count_p(56) - en.count_p(0)


def test_fixed_difference_sweep_budget(record_sweeps):
    # A fixed-difference shape is swept as a range, every size up to a
    # bound, on its first miss, and regrown like a plain key.  The reads at
    # n = 2 diff of every shape share one family key per (lo, mod, over)
    # instead, unless the shape's own entry covers them.
    def diff_sweeps(run, *args, **kwargs):
        calls = record_sweeps(tally=False)
        run(*args, **kwargs)
        return [args for name, args in calls if name == "_sweep_diff"]

    # a row read from its largest n down: one sweep, not one per n
    row = diff_sweeps(cli.main, ["seq", "p_diff", "--t", "20", "--from", "1", "--to", "66"])
    assert row == [(66, 20, 1, None, False)]
    # a row that starts at n = 2t reads that n from the (2n, n) family, and
    # the rest of the row from the shape's own sweep
    row = diff_sweeps(cli.main, ["seq", "p_diff", "--t", "20", "--from", "1", "--to", "40"])
    assert row == [(40, None, 1, None, False), (39, 20, 1, None, False)]
    assert sorted(diff_sweeps(verify, "thm_and")) == [(59, l, 1, None, False) for l in range(2, 9)]

    # entries reading (2n, n) make one family sweep (t None) per
    # (lo, mod, over), to the largest size they read, and no shape sweep
    def family(n, mod, over):
        return [(2 * n, None, 1, mod, over)]

    for identity_id, incl, want in (
        ("prop2", False, family(25, None, False)),
        ("prop3", False, family(25, None, False)),
        ("over1", False, family(16, None, True)),
        ("over_gen", False, family(14, None, True)),
        # l | n only: a family first read at l | n closes only into the
        # rows l | n, at stride l; the largest n read for l = 5 is 45
        ("reg_div", False, [(96, None, 1, l, False, l) for l in (2, 3, 4)]
                           + [(90, None, 1, 5, False, 5)]),
        # all n: 48 is on the stride of l = 2, 3, 4, and the read at 47
        # re-sweeps each of those families at stride 1
        ("reg_div", True, [(96, None, 1, l, False, l) for l in (2, 3, 4)]
                          + [(94, None, 1, l, False) for l in (2, 3, 4)]
                          + family(48, 5, False)),
    ):
        diffs = diff_sweeps(verify, identity_id, include_nondivisible=incl)
        assert sorted(diffs, key=str) == sorted(want, key=str), identity_id
    # reg_odd reads (2n + 1, n + 1), outside the family, each shape at one
    # size: one sweep per shape, to at least 16 like every first miss
    diffs = diff_sweeps(verify, "reg_odd")
    assert sorted(diffs) == [(max(2 * n + 1, 16), n + 1, 1, 2, False) for n in range(1, 32, 2)]

    # reg_nondiv reads the shape diff = n + l - (n mod l) at up to l - 1
    # sizes, largest first: 33 shapes, one sweep each (58 sweeps when every
    # size was swept on its own)
    diffs = diff_sweeps(verify, "reg_nondiv")
    assert len(diffs) == len({a[1:] for a in diffs}) == 33

    # an ascending library loop regrows the range with headroom, to 16,
    # 24, ..., 64, 72; n = 40 = 2t is inside the shape's entry by then
    bounds = diff_sweeps(lambda: [en.count_p_fixed_diff(n, 20) for n in range(1, 67)])
    assert [a[0] for a in bounds] == [16, 24, 32, 40, 48, 56, 64, 72]
    assert all(a[1] == 20 for a in bounds)


def test_ubar_counts_sweep_without_the_generator(record_sweeps, capsys):
    # the package holds no overpartition generator (test_package checks
    # that), so the u-bar counts come from one or two _sweep_ubar calls
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
    # identity (over_a2, reg_a2) still shows.  Each plain key's histogram
    # is also checked whole, at every multiplicity, against a coin-change
    # count, so that counts moved between multiplicities no read
    # separates show too; so is each fixed-difference sweep, ranged shape
    # or (2d, d) family, at every size it tallies.
    reads = {}
    floor_reads = []
    last = []
    get = en._HistCache.get

    def spy_get(self, n, **kw):  # the plain key of the read that follows
        plain = kw.get("diff") is None
        last[:] = [(kw.get("lo", 1), kw.get("mod"), kw.get("over", False))] if plain else []
        if last and last[0][0] >= 2:
            floor_reads.append((n, *last[0]))
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
    swept = {(args[1:], args[0]) for name, args in calls if name == "_sweep_plain" and len(args) == 4}
    swept |= {("ubar", args[0]) for name, args in calls if name == "_sweep_ubar"}
    # the reads at lo >= 2 of one (mod, over) share a floors key, whose
    # floors f are swept one per call (hi = f + 1), from the top down, each
    # once per bound
    floors = {}
    for name, args in calls:
        if name == "_sweep_plain" and len(args) == 5:
            nmax, f, mod, over, hi = args
            assert hi == f + 1, args
            floors.setdefault((mod, over, nmax), []).append(f)
    for (mod, over, depth), fs in floors.items():
        assert fs == list(range(depth, fs[-1] - 1, -1)), (mod, over, depth)
    assert {key for key, _ in swept} | {("lo >= 2", mod, over) for mod, over, _ in floors} == {
        key if key == "ubar" or key[0] == 1 else ("lo >= 2", *key[1:]) for key in reads}
    assert all(any(key[0] in fs for (mod, over, _), fs in floors.items() if key[1:] == (mod, over))
               for key in reads if key != "ubar" and key[0] >= 2)

    def check(key, hists, depth):
        for m in sorted(reads[key] | {1}):
            witness = _witnesses(key, m, depth + 1)
            assert witness is not None, (key, m)
            for n in range(1, depth + 1):
                got = sum(cnt for c, cnt in hists[n].items() if c >= m)
                assert got == witness.coeff(n), (key, depth, m, n)

    for key, depth in sorted(swept, key=str):
        if key == "ubar":
            hists = [{1: t} for t in _sweep_ubar(depth)]
        else:
            hists = _sweep_plain(depth, *key)
            assert hists == smallest_run_hists(depth, *key), (key, depth)
        check(key, hists, depth)
        if key == (1, None, False):
            assert [sum(h.values()) for h in hists[1:]] == [
                en.count_p(n) for n in range(1, depth + 1)
            ]

    # the floors' tables as the cache builds them, each floor's own sweep
    # added to the table above it, for every lo read (the one-call sweep of
    # all floors >= lo too)
    def added(h, g):
        return {c: h.get(c, 0) + g.get(c, 0) for c in h.keys() | g.keys()}

    for (mod, over, depth), fs in sorted(floors.items(), key=str):
        run = [{}] * (depth + 1)
        for f in fs:
            run = list(map(added, run, _sweep_plain(depth, f, mod, over, f + 1)))
            key = (f, mod, over)
            if key in reads:
                assert run == smallest_run_hists(depth, *key), (key, depth)
                assert run == _sweep_plain(depth, *key), (key, depth)
                check(key, run, depth)

    # and every lo >= 2 read the catalog makes, replayed in its order on a
    # cold cache with the real kernels, against the coin-change rows
    monkeypatch.setattr(en._HistCache, "get", get)
    monkeypatch.setattr(en, "_sweep_plain", _sweep_plain)
    cache = en._HistCache()
    depth = max(n for n, *_ in floor_reads)
    want = {key: smallest_run_hists(depth, *key) for key in {tuple(r[1:]) for r in floor_reads}}
    for n, lo, mod, over in floor_reads:
        assert cache.get(n, lo=lo, mod=mod, over=over) == (want[lo, mod, over][n] if n >= 1 else {}), (
            n, lo, mod, over)

    diffs = sorted({args for name, args in calls if name == "_sweep_diff"}, key=str)
    assert {a[1] is None for a in diffs} == {False, True}  # shapes and families
    assert any(len(a) == 6 for a in diffs)  # and stride families
    for args in diffs:
        nmax, t, lo, mod, over, *stride = args
        want = (family_hists(nmax, lo, mod, over) if t is None
                else fixed_diff_hists(nmax, t, lo, mod, over))
        if stride:  # the rows 2d with stride | d
            want = [h if n % (2 * stride[0]) == 0 else {} for n, h in enumerate(want)]
        assert _sweep_diff(*args) == want, args


def test_each_countwise_side_reads_its_own_sources(record_sweeps, monkeypatch):
    # What each side of every countwise entry reads at its default grid, from
    # a run with the sweeps stubbed out: the sweep keys (tuples), p(n) from
    # the pentagonal recurrence and the closed forms (names).  Preparing the
    # sides reads no sweep key, so every sweep is charged to one side; no
    # entry's two sides share a key; and exactly the three p-combination
    # entries have no enumeration side.
    log = []
    swept, get = en._HistCache._swept, en._HistCache.get

    def spy_swept(self, key, n, *args):
        log.append(key)
        return swept(self, key, n, *args)

    def spy_get(self, n, **kw):
        if kw.get("diff") is not None:
            log.append(("diff", n, *sorted(kw.items())))
        return get(self, n, **kw)

    def recording(name, real):
        def call(*args, **kwargs):
            log.append(name)
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(en._HistCache, "_swept", spy_swept)
    monkeypatch.setattr(en._HistCache, "get", spy_get)
    for name in ("gf_a_m_sum", "gf_pbar", "gf_breg", "a2_via_p", "a3_via_p", "a4_via_p",
                 "aG1_via_p", "remark7_rhs"):
        monkeypatch.setattr(cf, name, recording(name, getattr(cf, name)))
    monkeypatch.setattr(cf, "count_p", recording("count_p", en.count_p))
    record_sweeps(tally=False)

    def split(entries):
        return ({x for x in entries if isinstance(x, str)},
                {x for x in entries if isinstance(x, tuple)})

    reads, shared, no_enumeration = {}, {}, set()
    for ident in registry():
        if ident.kind != "countwise":
            continue
        del log[:]
        sides = ident.sides(ident.bound)
        prep = split(log)
        seen = ([], [])
        for params in ident.points(ident.bound, False):
            for side, fn in zip(seen, sides):
                del log[:]
                fn(**params)
                side += log
        (lcalls, lkeys), (rcalls, rkeys) = split(seen[0]), split(seen[1])
        reads[ident.id] = (prep, lkeys, rcalls, rkeys)
        if prep[1] or lkeys & rkeys:
            shared[ident.id] = prep[1] | (lkeys & rkeys)
        if not lkeys and not rkeys:
            no_enumeration.add(ident.id)
            assert prep[0] == {"gf_a_m_sum"} and "count_p" in rcalls, ident.id
    assert shared == {}
    assert no_enumeration == {"prop1", "thm_a3", "thm_a4"}
    assert reads["over_a2"] == (({"gf_pbar"}, set()), {(1, None, True)}, set(), {("ubar",)})
    assert reads["reg_a2"] == (({"gf_breg"}, set()), {(1, 2, False)}, set(), set())
    # the Q_{l,k} and p*_m reads go to the floors key; a_m and p(2n, n) do not
    for ident_id, left in (("thmG1", (1, None, False)), ("remark7", ("2n, n", 1, None, False))):
        assert left in reads[ident_id][1], ident_id
        assert reads[ident_id][3] == {("lo >= 2", None, False)}, ident_id


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
    with pytest.raises(ValueError):
        bijection_prop3((True, True), 2)  # bools are not parts


def test_bijection_prop3_round_trip_and_coverage():
    for m in range(2, 5):
        for n in range(1, 21):
            sources = list(gen_partitions(n, smallest_mult_min=m))
            images = [bijection_prop3(p, m) for p in sources]
            for src, img in zip(sources, images):
                assert sum(img) == 2 * n
                assert img[0] - img[-1] == n
                assert bijection_prop3_inverse(img, m) == src
            targets = list(gen_partitions(2 * n, smallest_mult_min=m - 1, exact_diff=n))
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
    with pytest.raises(ValueError):
        bijection_over1([(2.7, False), (2.2, False)], 4)  # values are not ints
    with pytest.raises(ValueError):
        bijection_over1([("2", 0), ("2", "")], 4)  # nor the overlines bools


def test_bijection_over1_exact_double_cover():
    for n in range(1, 13):
        sources = list(gen_overpartitions(n, smallest_mult_min=2))
        images = []
        for src in sources:
            plain, marked = bijection_over1(src, n)
            assert plain != marked
            images += [plain, marked]
        targets = list(gen_overpartitions(2 * n, exact_diff=n))
        assert len(images) == len(set(images))
        assert sorted(images) == sorted(targets)
