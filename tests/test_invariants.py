import pytest

from parres import invariants
from parres.algebra import AlgebraError
from parres.groebner import FinitelyPresentedModule, RingMatrix
from parres.invariants import (NOT_FOUND, UNDECIDED, cohen_macaulay_defect,
                               cohomology_comparison_map, depth, flc_check,
                               find_standard_power, first_standard_power,
                               grade, invariant_report,
                               is_sop, is_standard_sop,
                               length_stability_check,
                               local_cohomology_lengths, reference_sop,
                               ring_module, standardness_witness)


def test_depth_and_defect(corpus):
    expect = {"r1": (2, 0, 2), "r2": (2, 1, 1), "regular": (2, 2, 0),
              "hypersurface": (2, 2, 0), "nonflc": (3, 2, 1)}
    for name, spec in corpus.items():
        dim, dep, cmd = expect[name]
        assert spec.ring.dimension() == dim, name
        assert depth(ring_module(spec.ring)) == dep, name
        assert cohen_macaulay_defect(spec.ring) == cmd, name


def test_depth_of_presented_module(r1, r2):
    # the Koszul complex of a module with relations carries the homology of
    # a truncated resolution above degree v, which depth must not count
    for spec, dep in ((r1, 0), (r2, 1)):
        ring = spec.ring
        a = ring.ambient.gen(ring.variables[0])
        rel = RingMatrix.from_columns(ring, [[a]], row_degrees=[0])
        assert depth(FinitelyPresentedModule(ring, [0], rel)) == dep


def test_grade(r1, r2):
    ring = r1.ring
    assert grade([ring.ambient.parse("a"), ring.ambient.parse("b")], ring) == 0
    ring2 = r2.ring
    assert grade([ring2.ambient.parse("a + c"),
                  ring2.ambient.parse("b + d")], ring2) == 1
    with pytest.raises(AlgebraError):
        grade([ring.ambient.one()], ring)


def test_is_sop(r1):
    assert is_sop(r1.sop("x"))
    mod = r1.sop("x").quotient_module()
    # a zero-dimensional module admits the empty sop only
    assert not is_sop(r1.sop("x"), mod)


def test_standardness(r1, r2):
    assert standardness_witness(r1.sop("x")) is None
    assert is_standard_sop(r1.sop("x"))
    assert is_standard_sop(r2.sop())


def test_local_cohomology_lengths(r1, r2):
    assert local_cohomology_lengths(ring_module(r1.ring), r1.sop("x")) == [1, 0]
    assert local_cohomology_lengths(ring_module(r2.ring), r2.sop()) == [0, 1]


def test_flc_verdicts(r1, r2, nonflc):
    assert flc_check(ring_module(r1.ring), x=r1.sop("x")) is True
    assert flc_check(ring_module(r2.ring), x=r2.sop()) is True
    verdict = flc_check(ring_module(nonflc.ring), x=nonflc.sop("y"), nmax=3)
    assert verdict is UNDECIDED
    with pytest.raises(AlgebraError):
        bool(verdict)


def test_find_standard_power(r1, r2, nonflc):
    assert find_standard_power(r1.ring, r1.sop("x")) == 1
    assert find_standard_power(r2.ring, r2.sop()) == 1
    assert find_standard_power(nonflc.ring, nonflc.sop("y"),
                               nmax=3) is NOT_FOUND


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


def test_reference_sop(r1, r2):
    x = reference_sop(r1.ring)
    assert x.is_sop()
    y = reference_sop(r2.ring)
    assert y.is_sop() and y.count == 2


def test_cohomology_comparison_map(r1):
    x = r1.sop("x")
    ind = cohomology_comparison_map(x, 1, 0)
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
