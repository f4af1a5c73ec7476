"""Four rings of the paper's questions held in conftest as spec texts.

The quintic, GF(32003)[a,b,c,d]/(bc - ad, c^4 - bd^3, ac^3 - b^2d^2,
a^2c^2 - b^3d, b^4 - a^3c) with x = (a, d), has dim 2, depth 1 and first
standard power 2, so its scan meets the powers of x up to x^8.  Ring 109 is
a complete intersection of dimension 1 whose residue field has Tate's
Poincare series.  The report values are those of `parres <command> --ring
<spec> --format structured`.  Rings 81 and 84, GF(32003)[a,b,c] with
x = c, pin two findings of the generator's rings: Betti totals that agree
before the standard power, and a standard power past the default power
bound.
"""

import json

from parres.harness import parse_ring_spec, run_experiment
from parres.invariants import (UNDECIDED, find_standard_power, flc_check,
                               local_cohomology_lengths,
                               maximal_ideal_sequence)
from parres.resolutions import betti_table

from conftest import QUINTIC, RING_81, RING_84, RING_109


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
    # H_1(x^2) through cap 5: its last row is read off GF(p) ranks
    data, passes = _structured("main-theorem", 5)
    assert data["standard_power"] == 2
    assert data["poincare_h"] == [2, 6, 18, 48, 132, 360]
    assert passes == [True, True, True]


def test_ring_109_residue_field_has_tates_series():
    # (1+t)^4 / (1-t^2)^3 = 1 + 4t + 9t^2 + 16t^3 + 25t^4 + ..., and the
    # resolution is linear
    ring = parse_ring_spec(RING_109).ring
    k = maximal_ideal_sequence(ring).quotient_module()
    assert betti_table(k, 5).entries == {(i, i): (i + 1) ** 2
                                         for i in range(6)}


def _shifted_tail(table, n):
    """The graded Betti table of R/(x^n) without (0, 0) and (1, n), its
    internal degrees lowered by n."""
    return {(i, j - n): b for (i, j), b in table.entries.items()
            if (i, j) not in ((0, 0), (1, n))}


def test_ring_81_totals_agree_before_the_standard_power():
    spec = parse_ring_spec(RING_81)
    x = spec.sop()
    tables = {n: betti_table(x.power(n).quotient_module(), 6)
              for n in (1, 2, 3)}
    assert all(t.totals() == [1, 1, 1, 2, 3, 5, 8] for t in tables.values())
    assert find_standard_power(x, 4) == (True, 2)
    # the graded tables shift from the standard power on, and only there
    assert _shifted_tail(tables[3], 3) == _shifted_tail(tables[2], 2)
    assert _shifted_tail(tables[1], 1) != _shifted_tail(tables[2], 2)


def test_ring_84_needs_power_5_to_decide_flc():
    spec = parse_ring_spec(RING_84)
    x = spec.sop()
    assert flc_check(x, 4) is UNDECIDED
    assert flc_check(x, 5) is True
    assert find_standard_power(x, 5) == (True, 4)
    assert local_cohomology_lengths(x.power(4)) == [8]
