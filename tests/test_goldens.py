"""Golden gate: the structured report of every (subcommand, bundled ring)
CLI run at its default caps, and of each op of the benchmark's `deep`
workload, must equal the stored report byte for byte.

The reports live in perfbench/golden/default/<ring>.<subcommand>.json and
perfbench/golden/deep/<op>.json and are only read here;
perfbench/make_golden.py writes them.  The `deep` ops come from
perfbench/workloads.py, loaded read-only by path.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from parres import cli, groebner, harness, resolutions

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = PERFBENCH / "golden" / "default"


@pytest.mark.parametrize("ring", cli.BUNDLED)
@pytest.mark.parametrize("cmd", list(harness.EXPERIMENTS))
def test_structured_report_matches_golden(cmd, ring):
    args = cli.build_parser().parse_args(
        [cmd, "--ring", ring, "--format", "structured"])
    want = (GOLDEN / f"{ring}.{cmd}.json").read_text(encoding="utf-8")
    assert cli.run(args).render("structured") == want


def _load_workloads():
    # workloads.py imports its sibling ringgen by bare name
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(PERFBENCH))
    return mod


WORKLOADS = _load_workloads()
DEEP_OPS = list(WORKLOADS.Deep.CLI_OPS) + [WORKLOADS.Deep.RESIDUE[0]]


def test_benchmark_lists_match_the_package():
    # make_golden.py writes the goldens from the benchmark's own copies of
    # the subcommand and ring lists; the gate above reads the package's
    assert WORKLOADS.SUBCOMMANDS == tuple(harness.EXPERIMENTS)
    assert WORKLOADS.BUNDLED == cli.BUNDLED


@pytest.mark.parametrize("key", DEEP_OPS)
def test_deep_report_matches_golden(key):
    api = SimpleNamespace(cli=cli, groebner=groebner, harness=harness,
                          resolutions=resolutions)
    deep = WORKLOADS.Deep(api, 0, None)
    op = dict(deep.ops)[key]
    assert op() == deep.golden[key]
