import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from parres import algebra, complexes, harness, invariants, koszul, oracle
from parres.algebra import AlgebraError
from parres.cli import main
from parres.groebner import FinitelyPresentedModule
from parres.harness import parse_ring_spec, verify_main_theorem
from parres.invariants import (NOT_FOUND, UNDECIDED, cohen_macaulay_defect,
                               cohomology_comparison_map, depth, flc_check,
                               find_standard_power, first_standard_power,
                               grade, invariant_report, is_standard_sop,
                               length_stability_check,
                               local_cohomology_lengths,
                               maximal_ideal_sequence, reference_sop,
                               standardness_witness)
from parres.koszul import KoszulTable, koszul_complex

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_depth_and_defect(corpus):
    expect = {"r1": (2, 0, 2), "r2": (2, 1, 1), "regular": (2, 2, 0),
              "hypersurface": (2, 2, 0), "nonflc": (3, 2, 1)}
    for name, spec in corpus.items():
        dim, dep, cmd = expect[name]
        assert spec.ring.dimension() == dim, name
        assert depth(spec.ring) == dep, name
        assert cohen_macaulay_defect(spec.ring) == cmd, name


def test_grade(r1, r2):
    ring = r1.ring
    assert grade([ring.ambient.parse("a"), ring.ambient.parse("b")], ring) == 0
    ring2 = r2.ring
    assert grade([ring2.ambient.parse("a + c"),
                  ring2.ambient.parse("b + d")], ring2) == 1
    with pytest.raises(AlgebraError):
        grade([ring.ambient.one()], ring)


def test_standardness(r1, r2):
    assert standardness_witness(r1.sop("x")) is None
    assert is_standard_sop(r1.sop("x"))
    assert is_standard_sop(r2.sop())


def test_local_cohomology_lengths(r1, r2):
    assert local_cohomology_lengths(r1.sop("x")) == [1, 0]
    assert local_cohomology_lengths(r2.sop()) == [0, 1]


def test_flc_verdicts(r1, r2, nonflc):
    assert flc_check(r1.sop("x")) is True
    assert flc_check(r2.sop()) is True
    verdict = flc_check(nonflc.sop("y"), nmax=3)
    assert verdict is UNDECIDED
    with pytest.raises(AlgebraError):
        bool(verdict)


def test_find_standard_power(r1, r2, nonflc):
    assert find_standard_power(r1.sop("x")) == 1
    assert find_standard_power(r2.sop()) == 1
    assert find_standard_power(nonflc.sop("y"), nmax=3) is NOT_FOUND


def test_invariant_report_checks_flc_once(monkeypatch, r1, r2):
    calls = []
    real = invariants.flc_check

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(invariants, "flc_check", counting)
    inv = invariant_report(r1.ring, r1.sop("x"))
    assert len(calls) == 1
    assert inv.to_dict()["standard_power"] == 1
    # once FLC holds, the search alone gives the same answer
    assert first_standard_power(r2.sop()) == 1


def test_invariants_never_present_r_itself(monkeypatch, r2):
    # depth, the defect and the FLC check work on R directly: no caller
    # builds R as a module over itself and computes its Groebner basis again
    seen = []
    real = FinitelyPresentedModule._initial_leads

    def counting(self):
        if self.gen_degrees == (0,) and self.relations.is_zero():
            seen.append(self)
        return real(self)

    monkeypatch.setattr(FinitelyPresentedModule, "_initial_leads", counting)
    inv = invariant_report(r2.ring, r2.sop())
    rep = verify_main_theorem(r2.ring, r2.sop(), 4)
    assert inv.to_dict()["depth"] == 1 and rep.passed()
    assert seen == []


def test_reference_sop(r1, r2):
    x = reference_sop(r1.ring)
    assert x.is_sop()
    y = reference_sop(r2.ring)
    assert y.is_sop() and y.count == 2


def test_cohomology_comparison_map(r1):
    x = r1.sop("x")
    ind = cohomology_comparison_map(x, 1, 0, KoszulTable(r1.ring))
    assert ind.is_injective()
    assert ind.is_isomorphism()


def test_length_stability(r1):
    rep = length_stability_check(r1.sop("x"), nmax=3)
    assert rep.all_stable()
    assert rep.monotone()
    assert all(rep.injective.values())


def test_invariant_report(r1, nonflc):
    inv = invariant_report(r1.ring, r1.sop("x"))
    d = inv.to_dict()
    assert d["dim"] == 2 and d["depth"] == 0 and d["cmd"] == 2
    assert d["flc"] is True and d["lc_lengths"] == [1, 0]
    assert d["standard_power"] == 1
    inv2 = invariant_report(nonflc.ring, nonflc.sop("y"), nmax=3)
    assert inv2.to_dict()["flc"] == "UNDECIDED"


@pytest.mark.parametrize("ideal, sop, want", [
    (["a"], ["b"], 1),
    (["a"], None, 1),
    (["a", "b"], None, 0),
], ids=["linear-with-sop", "linear-no-sop", "artinian"])
def test_variable_in_the_ideal(tmp_path, ideal, sop, want):
    # a variable in I is zero in R; the maximal ideal is generated by the rest
    text = "[field]\n101\n[vars]\na b\n[ideal]\n" + "\n".join(ideal) + "\n"
    if sop:
        text += "[sop x]\n" + "\n".join(sop) + "\n"
    ring = parse_ring_spec(text).ring
    assert maximal_ideal_sequence(ring).count == 2 - len(ideal)
    assert depth(ring) == want
    path = tmp_path / "spec.ring"
    path.write_text(text)
    out = tmp_path / "report.json"
    assert main(["invariants", "--ring", str(path), "--format",
                 "structured", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["data"]["depth"] == want


def _random_sop_specs(count):
    spec = importlib.util.spec_from_file_location(
        "perfbench_ringgen", PERFBENCH / "ringgen.py")
    ringgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ringgen)
    api = SimpleNamespace(algebra=algebra, harness=harness,
                          invariants=invariants)
    return [parse_ring_spec(text)
            for text in ringgen.random_rings(api, 101)[:count]]


def test_depth_of_the_maximal_ideal_is_the_grade_of_a_sop(corpus):
    # grade depends only on the radical, and a sop generates an ideal
    # primary to the maximal ideal
    specs = list(corpus.values()) + _random_sop_specs(40)
    depths = set()
    for spec in specs:
        for x in spec.sops.values():
            assert x.is_sop()
            want = KoszulTable(spec.ring).grade(
                maximal_ideal_sequence(spec.ring))
            assert KoszulTable(spec.ring).grade(x) == want, spec.name
            assert depth(spec.ring, x=x) == want
            depths.add(want)
    assert depths == {0, 1, 2}


def test_grade_of_the_maximal_ideal_against_the_oracle(corpus):
    # degreewise GF(p) reference: the top nonvanishing H_i(m; R) sits at
    # count - grade (H_i(m; R) is killed by m, so degree 8 reaches it here)
    for name, spec in corpus.items():
        m = maximal_ideal_sequence(spec.ring)
        k = koszul_complex(m)
        top = m.count - KoszulTable(spec.ring).grade(m)
        dims = [[oracle.homology_dim_at(k, i, t) for t in range(9)]
                for i in range(top, m.count + 1)]
        assert any(dims[0]), name
        assert not any(map(any, dims[1:])), name


def test_non_sop_never_gives_the_depth(regular):
    ring = regular.ring
    prefix = invariants._prefix(regular.sop(), 1)
    table = KoszulTable(ring)
    assert not table.is_sop(prefix)
    assert table.grade(prefix) == 1
    assert depth(ring, x=prefix, table=table) == 2
    assert cohen_macaulay_defect(ring, x=prefix, table=table) == 0


def test_invariant_report_tables_live_for_one_call(monkeypatch, r2):
    calls = []
    real = complexes.homology_presentation

    def counting(cplx, n):
        calls.append(n)
        return real(cplx, n)

    for mod in (complexes, koszul):
        monkeypatch.setattr(mod, "homology_presentation", counting)
    invariant_report(r2.ring, r2.sop())
    first = len(calls)
    invariant_report(r2.ring, r2.sop())
    assert first > 0 and len(calls) == 2 * first
