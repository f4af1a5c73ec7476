"""The benchmark's layer tracer and workloads name parres entry points by
module and attribute; these tests fail on a rename or a signature change that
would otherwise only break `perfbench/run.py`.  perfbench/ is only read.
"""

import importlib.util
import re
from pathlib import Path

import pytest

from parres.cli import build_parser, run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


LAYERTRACE = _load("layertrace")
BENCH_RUN = _load("run")


@pytest.mark.parametrize("name, modname, attr", LAYERTRACE.ENTRY_POINTS,
                         ids=[e[0] for e in LAYERTRACE.ENTRY_POINTS])
def test_entry_point_resolves(name, modname, attr):
    obj = getattr(BENCH_RUN.Api(), modname)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj), name


# the workloads and the ring generator also call parres directly, as
# api.<module>.<name>
DIRECT_CALLS = sorted({
    m.group(1, 2)
    for name in ("workloads", "ringgen")
    for m in re.finditer(r"\bapi\.(\w+)\.(\w+)",
                         (PERFBENCH / f"{name}.py").read_text())})


@pytest.mark.parametrize("modname, attr", DIRECT_CALLS,
                         ids=[".".join(c) for c in DIRECT_CALLS])
def test_direct_call_resolves(modname, attr):
    assert hasattr(getattr(BENCH_RUN.Api(), modname), attr)


def test_traced_run_counts_layers():
    # the tracer reads positional arguments of some entry points (the cap
    # of a resolution, the matrix of a solver); a traced run exercises them
    api = BENCH_RUN.Api()
    tracer = LAYERTRACE.Tracer()
    tracer.install(api)
    try:
        for argv in (["standard", "--ring", "r2"],
                     ["resolve", "--ring", "r1", "--cap", "3"]):
            run(build_parser().parse_args(argv))
        # `resolve` reads betti_table, which resolves through cap - 1 by
        # minimal_free_resolution: steps 2 and 3 count under it
        betti_path_steps = tracer.counts["syzygy_steps"]
        spec = api.harness.parse_ring_spec(api.cli.bundled_ring_text("r1"))
        api.resolutions.minimal_free_resolution(spec.sop().quotient_module(),
                                                3)
        metrics = tracer.layer_metrics(1.0, 1.0)
    finally:
        tracer.uninstall()
    assert tracer.calls["invariants.find_standard_power"] == 1
    assert tracer.calls["invariants.flc_check"] == 1
    assert betti_path_steps == 2
    assert metrics["resolutions.syzygy_steps"] == betti_path_steps + 3
    assert metrics["groebner.solver_build.calls"] > 0
    assert metrics["groebner.module_leads.calls"] > 0
    assert metrics["engine.gb_out"] > 0  # len() of a Buchberger store
    # only buchberger builds a reducer: one per Groebner basis or module's
    # leads, and none rebuilt from a finished basis
    assert metrics["kernel.reducer_builds"] <= (
        tracer.calls["engine.groebner_basis"]
        + metrics["groebner.module_leads.calls"])
