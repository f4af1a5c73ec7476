"""Golden gate: the structured report of every (subcommand, bundled ring)
CLI run at its default caps must equal the stored report byte for byte.

The reports live in perfbench/golden/default/<ring>.<subcommand>.json and are
only read here; perfbench/make_golden.py writes them.
"""

from pathlib import Path

import pytest

from parres import cli

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden" \
    / "default"
SUBCOMMANDS = ("resolve", "koszul", "invariants", "standard", "inequality",
               "main-theorem", "scan", "example")


@pytest.mark.parametrize("ring", cli.BUNDLED)
@pytest.mark.parametrize("cmd", SUBCOMMANDS)
def test_structured_report_matches_golden(cmd, ring):
    args = cli.build_parser().parse_args(
        [cmd, "--ring", ring, "--format", "structured"])
    want = (GOLDEN / f"{ring}.{cmd}.json").read_text(encoding="utf-8")
    assert cli.run(args).render("structured") == want
