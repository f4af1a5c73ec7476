import json

import pytest

from parres import invariants, oracle
from parres.algebra import AlgebraError
from parres.cli import bundled_ring_text, main
from parres.groebner import FinitelyPresentedModule
from parres.harness import parse_ring_spec, run_experiment
from parres.invariants import (NOT_FOUND, UNDECIDED, cohen_macaulay_defect,
                               cohomology_comparison_map, depth, flc_check,
                               find_standard_power, invariant_report,
                               length_stability_check,
                               local_cohomology_lengths,
                               maximal_ideal_sequence, reference_sop,
                               standardness_witness)
from parres.koszul import ParameterSequence, koszul_complex

from conftest import packed


def test_depth_and_defect(corpus):
    expect = {"r1": (2, 0, 2), "r2": (2, 1, 1), "regular": (2, 2, 0),
              "hypersurface": (2, 2, 0), "nonflc": (3, 2, 1)}
    for name, spec in corpus.items():
        dim, dep, cmd = expect[name]
        assert spec.ring.dimension() == dim, name
        assert depth(spec.sop()) == dep, name
        assert cohen_macaulay_defect(spec.sop()) == cmd, name


def _grade(ring, texts):
    seq = ParameterSequence(ring, packed(ring.ambient, [
        ring.ambient.parse(t) for t in texts]))
    return seq.grade()


def test_grade(r1, r2):
    assert _grade(r1.ring, ["a", "b"]) == 0
    assert _grade(r2.ring, ["a + c", "b + d"]) == 1
    # a unit is no parameter: ParameterSequence rejects it
    with pytest.raises(AlgebraError):
        ParameterSequence(r1.ring, packed(r1.ring.ambient,
                                          [r1.ring.ambient.one()]))


def test_standardness(r1, r2):
    assert standardness_witness(r1.sop("x")) is None
    # standard at the first power; both rings have finite local cohomology
    assert find_standard_power(r1.sop("x"), nmax=4) == (True, 1)
    assert find_standard_power(r2.sop(), nmax=4) == (True, 1)


def test_high_powers_stop_at_the_packing_limit(r2):
    # Koszul homology of x^256 builds products past degree 1022; the degree
    # check names the limit before a key overflows its fields
    x = r2.sop("x")
    with pytest.raises(AlgebraError, match="exceeds packing limit"):
        standardness_witness(x.power(256))


def test_local_cohomology_lengths(r1, r2):
    assert local_cohomology_lengths(r1.sop("x")) == [1, 0]
    assert local_cohomology_lengths(r2.sop()) == [0, 1]


def test_flc_verdicts(r1, r2, nonflc):
    assert flc_check(r1.sop("x"), nmax=4) is True
    assert flc_check(r2.sop(), nmax=4) is True
    verdict = flc_check(nonflc.sop("y"), nmax=3)
    assert verdict is UNDECIDED
    with pytest.raises(AlgebraError):
        bool(verdict)


def test_find_standard_power(r1, r2, nonflc):
    assert find_standard_power(r1.sop("x"), nmax=4) == (True, 1)
    assert find_standard_power(r2.sop(), nmax=4) == (True, 1)
    verdict, n = find_standard_power(nonflc.sop("y"), nmax=3)
    assert verdict is UNDECIDED
    assert n is NOT_FOUND


def test_invariant_report_checks_flc_once(monkeypatch, r1):
    calls = []
    real = invariants.flc_check

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(invariants, "flc_check", counting)
    inv = invariant_report(r1.ring, r1.sop("x"))
    assert len(calls) == 1
    assert inv.to_dict()["standard_power"] == 1
    # the report records the verdict and the power of the one search
    assert find_standard_power(r1.sop("x"), nmax=4) == (inv.flc,
                                                        inv.standard_power)


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
    rep = run_experiment("main-theorem", r2.ring, r2.sop(), 4, 4)
    assert inv.to_dict()["depth"] == 1 and rep.passed()
    assert seen == []


def test_reference_sop(r1, r2):
    x = reference_sop(r1.ring)
    assert x.is_sop()
    y = reference_sop(r2.ring)
    assert y.is_sop() and y.count == 2


def test_cohomology_comparison_map(r1):
    x = r1.sop("x")
    ind = cohomology_comparison_map(x, 1, 0)
    assert ind.is_injective()
    # and surjective: the cokernel is zero
    assert ind.cokernel().length() == 0


def test_length_stability(r1):
    rep = length_stability_check(r1.sop("x"), nmax=3, check_maps=True)
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
    assert inv2.to_dict()["flc"] is UNDECIDED


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
    spec = parse_ring_spec(text)
    ring = spec.ring
    assert maximal_ideal_sequence(ring).count == 2 - len(ideal)
    # with no sop, the reference sop: on the artinian ring, the empty one
    x = spec.sop() if sop else reference_sop(ring)
    assert x.count == ring.dimension() and depth(x) == want
    path = tmp_path / "spec.ring"
    path.write_text(text)
    out = tmp_path / "report.json"
    assert main(["invariants", "--ring", str(path), "--format",
                 "structured", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["data"]["depth"] == want


def test_depth_of_the_maximal_ideal_is_the_grade_of_a_sop(corpus,
                                                          random_specs):
    # grade depends only on the radical, and a sop generates an ideal
    # primary to the maximal ideal
    specs = list(corpus.values()) + random_specs
    depths = set()
    for spec in specs:
        for x in spec.sops.values():
            assert x.is_sop()
            want = maximal_ideal_sequence(spec.ring).grade()
            assert x.grade() == want, spec.name
            assert depth(x) == want
            depths.add(want)
    assert depths == {0, 1, 2}


def test_grade_of_the_maximal_ideal_against_the_oracle(corpus):
    # degreewise GF(p) reference: the top nonvanishing H_i(m; R) sits at
    # count - grade (H_i(m; R) is killed by m, so degree 8 reaches it here)
    for name, spec in corpus.items():
        m = maximal_ideal_sequence(spec.ring)
        k = koszul_complex(m)
        top = m.count - m.grade()
        dims = [[oracle.homology_dim_at(k, i, t) for t in range(9)]
                for i in range(top, m.count + 1)]
        assert any(dims[0]), name
        assert not any(map(any, dims[1:])), name


def test_non_sop_never_gives_the_depth(regular):
    prefix = regular.sop().prefix(1)
    assert not prefix.is_sop()
    assert prefix.grade() == 1
    for read in (depth, cohen_macaulay_defect):
        with pytest.raises(AlgebraError,
                           match="reference sequence is not a sop of R"):
            read(prefix)


@pytest.mark.parametrize("ring, runs", [
    ("r1", 9), ("r2", 13), ("regular", 2), ("hypersurface", 2),
    ("nonflc", 9)])
def test_invariants_runs_each_groebner_basis_once(monkeypatch, ring, runs):
    # with no sop given, reference_sop's sop check and the depth's share the
    # Groebner basis of I + (x): R/(x) is the sequence's quotient module and
    # coker d_1 of its Koszul complex
    spec = parse_ring_spec(bundled_ring_text(ring))
    seen = []
    real = FinitelyPresentedModule._initial_leads

    def counting(module):
        seen.append((module.gen_degrees,
                     tuple(tuple(sorted(c.items()))
                           for c in module.relations.cols)))
        return real(module)

    monkeypatch.setattr(FinitelyPresentedModule, "_initial_leads", counting)
    run_experiment("invariants", spec.ring, None, 4, 3)
    assert len(seen) == len(set(seen)) == runs


def test_a_second_invariant_report_runs_no_groebner_basis(monkeypatch):
    # x keeps its powers and their prefixes, and each of them keeps R/(y)
    # and its Koszul data, so a second report on the same sop reads them
    spec = parse_ring_spec(bundled_ring_text("r2"))
    calls = []
    real = FinitelyPresentedModule._initial_leads

    def counting(module):
        calls.append(module.gen_degrees)
        return real(module)

    monkeypatch.setattr(FinitelyPresentedModule, "_initial_leads", counting)
    invariant_report(spec.ring, spec.sop())
    first = list(calls)
    calls.clear()
    invariant_report(spec.ring, spec.sop())
    assert first and calls == []
