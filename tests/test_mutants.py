from mutants import ROOT, load_mutants


def test_each_mutant_applies_to_exactly_one_place():
    # tests/mutants.py runs the faults themselves; here only their data: a
    # refactor that moves a mutated text updates the list in the same change
    mutants = load_mutants()
    assert len({m["id"] for m in mutants}) == len(mutants)
    for m in mutants:
        assert (ROOT / m["file"]).read_text().count(m["old"]) == 1, m["id"]
        assert m["new"] != m["old"], m["id"]
        for selected in m["select"]:
            assert (ROOT / selected.split("::")[0]).is_file(), m["id"]
