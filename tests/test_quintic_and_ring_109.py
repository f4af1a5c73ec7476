"""Two rings of the paper's questions held in conftest as spec texts.

The quintic, GF(32003)[a,b,c,d]/(bc - ad, c^4 - bd^3, ac^3 - b^2d^2,
a^2c^2 - b^3d, b^4 - a^3c) with x = (a, d), has dim 2, depth 1 and first
standard power 2, so its scan meets the powers of x up to x^8.  Ring 109 is
a complete intersection of dimension 1 whose residue field has Tate's
Poincare series.  The report values are those of `parres <command> --ring
<spec> --format structured`.
"""

import json

from parres.harness import parse_ring_spec, run_experiment
from parres.invariants import maximal_ideal_sequence
from parres.resolutions import betti_table

from conftest import QUINTIC, RING_109


def _structured(command, cap):
    """The structured report of `command` on a freshly parsed quintic at
    homological cap `cap` and power 4: (data, verdict passes)."""
    spec = parse_ring_spec(QUINTIC, name="quintic")
    report = run_experiment(command, spec.ring, spec.sop(), cap, 4)
    out = json.loads(report.render("structured"))
    return out["data"], [v["pass"] for v in out["verdicts"]]


def test_quintic_staircases():
    ring = parse_ring_spec(QUINTIC).ring
    assert [len(ring.packed_staircase(t)) for t in range(9)] == \
        [1, 4, 9, 16, 21, 26, 31, 36, 41]


def test_quintic_scan_stabilizes_at_the_first_standard_power():
    data, passes = _structured("scan", 4)
    assert data["betti_totals"] == {"1": [1, 2, 3, 8, 22],
                                    **{str(n): [1, 2, 3, 6, 18]
                                       for n in (2, 3, 4)}}
    assert data["standard"] == {"1": False, "2": True, "3": True,
                                "4": True}
    assert data["stabilization_index"] == 2
    assert passes == [True]


def test_quintic_invariants():
    data, passes = _structured("invariants", 4)
    assert (data["dim"], data["depth"], data["cmd"]) == (2, 1, 1)
    assert data["flc"] is True
    assert data["lc_lengths"] == [0, 4]
    assert data["standard_power"] == 2
    assert passes == [True]


def test_quintic_main_theorem():
    data, passes = _structured("main-theorem", 3)
    assert data["standard_power"] == 2
    assert data["poincare_h"] == [2, 6, 18, 48]
    assert passes == [True, True, True]


def test_ring_109_residue_field_has_tates_series():
    # (1+t)^4 / (1-t^2)^3 = 1 + 4t + 9t^2 + 16t^3 + ...
    ring = parse_ring_spec(RING_109).ring
    k = maximal_ideal_sequence(ring).quotient_module()
    assert betti_table(k, 3).totals() == [1, 4, 9, 16]
