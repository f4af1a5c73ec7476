"""Properties of the paper's objects that hold on every ring of a corpus."""

import pytest
from hypothesis import given, settings, strategies as st

from parres.cli import BUNDLED, bundled_ring_text
from parres.harness import parse_ring_spec, run_experiment
from parres.invariants import invariant_report
from parres.resolutions import betti_table

from conftest import QUINTIC, STAGE_A


def test_the_main_theorem_holds_on_every_random_ring(all_random_texts):
    # on each ring main-theorem either stops at a hypothesis it cannot
    # grant, or finds a standard power and passes all three identities;
    # the counts pin how many rings of the draw reach the identity
    applicable = 0
    for text in all_random_texts:
        spec = parse_ring_spec(text)
        x = spec.sop()
        report = run_experiment("main-theorem", spec.ring, x, 5, 4)
        verdicts = report.verdicts
        if len(verdicts) == 1:
            (only,) = verdicts
            assert only["claim"].endswith("hypothesis"), text
            assert (only["pass"], only["right"]) == (None, "NOT-APPLICABLE")
            continue
        assert [v["pass"] for v in verdicts] == [True] * 3, text
        inv = invariant_report(spec.ring, x, nmax=4)
        assert inv.standard_power == report.data["standard_power"], text
        applicable += 1
    assert (applicable, len(all_random_texts) - applicable) == (116, 64)


ORDER_TEXTS = {**{name: bundled_ring_text(name) for name in BUNDLED},
               "stage A": STAGE_A, "quintic": QUINTIC}
SHUFFLED_SECTIONS = ("[ideal]", "[sop ")


def _order_free_data(text):
    """Per sop x of the spec: the Betti table of R/(x) through cap 4 and
    the graded length of every H_p(x; R)."""
    spec = parse_ring_spec(text)
    return {name: (betti_table(x.quotient_module(), 4).entries,
                   [x.graded_length(p) for p in range(x.count + 1)])
            for name, x in spec.sops.items()}


def _shuffled(text, permute):
    """text with the lines of [ideal] and of each [sop] in the order
    permute gives; every other line stays where it is."""
    out, block = [], []
    shuffling = False
    for line in text.splitlines():
        if line.startswith("["):
            out.extend(permute(block))
            block = []
            shuffling = line.startswith(SHUFFLED_SECTIONS)
            out.append(line)
        elif shuffling:
            block.append(line)
        else:
            out.append(line)
    out.extend(permute(block))
    return "\n".join(out) + "\n"


@pytest.fixture(scope="module")
def unshuffled():
    return {name: _order_free_data(text)
            for name, text in ORDER_TEXTS.items()}


@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_betti_tables_and_koszul_lengths_ignore_generator_order(unshuffled,
                                                               data):
    # every example shuffles every ring, so no ring goes unshuffled
    def permute(lines):
        return data.draw(st.permutations(lines))

    for name, text in ORDER_TEXTS.items():
        shuffled = _shuffled(text, permute)
        assert _order_free_data(shuffled) == unshuffled[name], shuffled
