import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from parres import algebra, harness, invariants
from parres.cli import bundled_ring_text
from parres.harness import parse_ring_spec
from parres.koszul import koszul_complex
from parres.resolutions import minimal_free_resolution

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def is_minimal(cplx):
    """No differential has a term of degree 0, that is, a unit entry."""
    mono_degree = cplx.ring._ctx.mono_degree
    return all(mono_degree(k) for m in cplx.differentials.values()
               for col in m.cols for k in col)


def sop_differentials(spec, cap):
    """The differentials of K(x; R) and of the minimal resolution of R/(x)
    through cap, for the spec's reference sop."""
    x = spec.sop()
    res = minimal_free_resolution(x.quotient_module(), cap)
    return [*koszul_complex(x).differentials.values(),
            *res.complex.differentials.values()]


def _spec(name):
    return parse_ring_spec(bundled_ring_text(name), name=name)


@pytest.fixture(scope="session")
def r1():
    return _spec("r1")


@pytest.fixture(scope="session")
def r2():
    return _spec("r2")


@pytest.fixture(scope="session")
def regular():
    return _spec("regular")


@pytest.fixture(scope="session")
def hypersurface():
    return _spec("hypersurface")


@pytest.fixture(scope="session")
def nonflc():
    return _spec("nonflc")


# GF(2^31 - 1)[a,b,c]/(a^2 - 3bc, b^2 + 5ac): columns and normal forms
# carry residues near p, such as -1 and -3, so products of coefficients
# reach 2^62
BIG_FIELD_RING = """
[field]
2147483647
[vars]
a b c
[ideal]
a^2 - 3*b*c
b^2 + 5*a*c
[sop x]
c
[caps]
homological = 3
"""


@pytest.fixture
def big_field():
    """The ring spec above, parsed afresh for each test, so that its ring
    tables start empty."""
    return parse_ring_spec(BIG_FIELD_RING)


@pytest.fixture(scope="session")
def corpus(r1, r2, regular, hypersurface, nonflc):
    return {"r1": r1, "r2": r2, "regular": regular,
            "hypersurface": hypersurface, "nonflc": nonflc}


@pytest.fixture(scope="session")
def random_specs():
    """The first 40 random rings of the benchmark's generator at seed 101,
    each with its reference sop; the generator is only read."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_ringgen", PERFBENCH / "ringgen.py")
    ringgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ringgen)
    api = SimpleNamespace(algebra=algebra, harness=harness,
                          invariants=invariants)
    return [parse_ring_spec(text)
            for text in ringgen.random_rings(api, 101)[:40]]
