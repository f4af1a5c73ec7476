"""The stage-A ring of the paper corpus, held in conftest as a spec text.

R = GF(32003)[a,b,c]/(bc^2, a^2c, a^2 - 5026b^2) with the sop x = a + c:
dim 1, depth 0, and x^2 is the first standard power, so the Betti totals
of R/(x) differ from those of R/(x^n) for n = 2, 3, 4, which agree.  The
values are those of `parres <command> --ring <this spec> --format
structured` at the default caps.
"""

import json
from itertools import combinations
from math import prod

from parres.algebra import Polynomial
from parres.cli import DEFAULT_CAP, DEFAULT_POWER_MAX
from parres.groebner import QuotientRingSpec
from parres.harness import parse_ring_spec, run_experiment
from parres.invariants import maximal_ideal_sequence
from parres.koszul import comparison_map, koszul_complex
from parres.resolutions import cec_injectivity_check

from conftest import STAGE_A

def _structured(command):
    """The structured report of `command` on a freshly parsed stage-A
    ring, at the CLI's default caps: (data, verdict passes)."""
    spec = parse_ring_spec(STAGE_A, name="stage-a")
    report = run_experiment(command, spec.ring, spec.sop(), DEFAULT_CAP,
                            DEFAULT_POWER_MAX)
    out = json.loads(report.render("structured"))
    return out["data"], [v["pass"] for v in out["verdicts"]]


def test_stage_a_scan_stabilizes_at_the_first_standard_power():
    data, passes = _structured("scan")
    assert data["betti_totals"] == {"1": [1, 1, 1, 3, 6],
                                    **{str(n): [1, 1, 1, 2, 3]
                                       for n in (2, 3, 4)}}
    assert data["standard"] == {"1": False, "2": True, "3": True,
                                "4": True}
    assert data["stabilization_index"] == 2
    assert passes == [True]


def test_stage_a_standard_power_and_invariants():
    data, _ = _structured("standard")
    assert data["standard_power"] == 2
    data, passes = _structured("invariants")
    assert (data["dim"], data["depth"], data["cmd"]) == (1, 0, 1)
    assert data["lc_lengths"] == [2]
    assert passes == [True]


def test_stage_a_main_theorem():
    data, passes = _structured("main-theorem")
    assert data["standard_power"] == 2
    assert data["poincare_h"] == [1, 2, 3, 5, 8]
    assert data["poincare_quotient"] == [1, 1, 1, 2, 3]
    assert passes == [True, True, True]


def test_koszul_matrices_are_built_from_packed_columns(monkeypatch):
    # once the sequences exist, their powers, prefixes and quotient
    # modules, the Koszul complexes, the comparison map and the
    # criterion-8 check on constant terms make no Polynomial and reduce
    # none modulo I
    spec = parse_ring_spec(STAGE_A, name="stage-a")
    ring = spec.ring
    seqs = (spec.sop(), maximal_ideal_sequence(ring))
    made = []
    real = Polynomial.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        real(self, *args, **kwargs)

    real_reduce = QuotientRingSpec.reduce

    def reducing(self, f):
        made.append(f)
        return real_reduce(self, f)

    monkeypatch.setattr(Polynomial, "__init__", counting)
    monkeypatch.setattr(QuotientRingSpec, "reduce", reducing)
    for y in seqs:
        for z in (y, y.power(2), y.power(3), y.prefix(1),
                  y.power(2).prefix(1), y.power(2).power(2)):
            z.quotient_module()
    built = [(y, koszul_complex(y), koszul_complex(y.power(2)),
              comparison_map(y, 1)) for y in seqs]
    injective = [cec_injectivity_check(y, 2) for y in seqs]
    assert made == []
    assert injective == [{0: True, 1: True}, {0: True, 1: True, 2: True}]
    monkeypatch.undo()
    # the same entries as the exterior formula and the products on
    # Polynomials, reduced modulo I
    one = ring.ambient.one()
    for y, k, k2, cmap in built:
        for z, kz in ((y, k), (y.power(2), k2)):
            for p in range(1, z.count + 1):
                rows = {s: i for i, s in
                        enumerate(combinations(range(z.count), p - 1))}
                want = {}
                for j, s in enumerate(combinations(range(z.count), p)):
                    for t, i in enumerate(s):
                        f = z.elements[i]
                        want[(rows[s[:t] + s[t + 1:]], j)] = (
                            f if t % 2 == 0 else -f)
                assert kz.differential(p).entries == want
        for p in range(y.count + 1):
            want = {(j, j): ring.reduce(prod((y.elements[i] for i in s),
                                             start=one))
                    for j, s in enumerate(combinations(range(y.count), p))}
            assert cmap.component(p).entries == {
                ij: f for ij, f in want.items() if not f.is_zero()}
