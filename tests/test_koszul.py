import pytest
from math import comb

from parres import koszul
from parres.algebra import AlgebraError, NotHomogeneousError
from parres.complexes import homology_presentation
from parres.groebner import INFINITE
from parres.koszul import (KoszulTable, ParameterSequence, comparison_map,
                           koszul_complex)


def test_sequence_validation(r1):
    ring = r1.ring
    with pytest.raises(AlgebraError):
        ParameterSequence(ring, [ring.ambient.one()])
    with pytest.raises(NotHomogeneousError):
        ParameterSequence(ring, [ring.ambient.parse("a + b^2")])


def test_is_sop(r1, nonflc):
    assert r1.sop("x").is_sop()
    ring = r1.ring
    not_sop = ParameterSequence(ring, [ring.ambient.parse("a"),
                                       ring.ambient.parse("a^2")])
    assert not not_sop.is_sop()
    assert nonflc.sop("y").is_sop()


def test_power_sequence(r1):
    x = r1.sop("x")
    x2 = x.power(2)
    assert x2.degrees() == (2, 2)
    assert x.power(1) is x
    with pytest.raises(AlgebraError):
        x.power(0)


def test_koszul_ranks_binomial(r2):
    x = r2.sop()
    k = koszul_complex(x)
    for n in range(x.count + 1):
        assert k.rank(n) == comb(x.count, n)


def test_koszul_h0_is_quotient(r1):
    x = r1.sop("x")
    table = KoszulTable(r1.ring)
    h0 = table.homology(x, 0)
    assert h0.graded_length() == x.quotient_module().graded_length()
    # d_1 presents R/(x): the complex takes the sequence's own relation
    # matrix, and the table counts coker d_1 from the sequence's module
    assert table.complex(x).differential(1) is x.quotient_module().relations
    assert table._cokernel(x, 1) is x.quotient_module().hilbert_numerator()


def test_known_homology_r1(r1):
    x = r1.sop("x")
    table = KoszulTable(r1.ring)
    h1 = table.homology(x, 1)
    h2 = table.homology(x, 2)
    assert h1.length() == 2 and h1.graded_length() == {2: 2}
    assert h2.length() == 1 and h2.graded_length() == {3: 1}


def test_regular_sequence_acyclic(regular, hypersurface):
    for spec in (regular, hypersurface):
        x = spec.sop()
        table = KoszulTable(spec.ring)
        for i in range(1, x.count + 1):
            assert table.homology(x, i).is_zero()


def test_comparison_map_commutes(r1):
    x = r1.sop("x")
    table = KoszulTable(r1.ring)
    phi = comparison_map(x, 2, table)  # K(x^3) -> K(x^2); construction checks
    assert phi.source is table.complex(x.power(3))
    assert phi.target is table.complex(x.power(2))
    assert phi.components[0].entry(0, 0) == r1.ring.reduce(
        r1.ring.ambient.one())
    e = phi.components[1].entry(0, 0)
    assert e == r1.ring.reduce(x.elements[0])
    top = phi.components[x.count].entry(0, 0)
    prod = r1.ring.ambient.one()
    for f in x.elements:
        prod = prod * f
    assert top == r1.ring.reduce(prod)


def test_table_shares_prefix_of_square_and_square_of_prefix(monkeypatch, r2):
    built = []
    real = koszul.koszul_complex

    def counting(y):
        built.append(y.elements)
        return real(y)

    monkeypatch.setattr(koszul, "koszul_complex", counting)
    x = r2.sop()
    table = KoszulTable(r2.ring)
    prefix_of_square = ParameterSequence(r2.ring, x.power(2).elements[:1])
    square_of_prefix = ParameterSequence(r2.ring, [x.elements[0] ** 2])
    h = table.homology(prefix_of_square, 1)
    assert table.homology(square_of_prefix, 1) is h
    assert table.length(square_of_prefix, 1) == h.length()
    assert len(built) == 1


def test_table_is_bound_to_its_ring(r1, r2):
    table = KoszulTable(r1.ring)
    with pytest.raises(AlgebraError):
        table.length(r2.sop(), 1)
    with pytest.raises(AlgebraError):
        table.homology(r1.sop("x"), -1)
    # K(x; R) has no term above x.count, so H_3 of a 2-element sop is zero
    assert table.homology(r1.sop("x"), 3).length() == 0
    assert table.length(r1.sop("x"), 3) == 0


def _assert_series_match_presentations(spec, powers):
    """Lengths and graded lengths read off the table's Hilbert series equal
    those of the presented H_p(y; R), for y = x^n and for its prefix
    without the last element, which is no sop and has INFINITE lengths."""
    table = KoszulTable(spec.ring)
    seen = set()
    for x in spec.sops.values():
        for n in powers:
            xn = x.power(n)
            for y in (xn, ParameterSequence(spec.ring, xn.elements[:-1])):
                for p in range(y.count + 1):
                    _, h = homology_presentation(table.complex(y), p)
                    length = table.length(y, p)
                    assert length == h.length(), (spec.name, y, p)
                    seen.add(length is INFINITE)
                    if length is INFINITE:
                        assert table.graded_length(y, p) is INFINITE
                    else:
                        assert table.graded_length(y, p) == \
                            h.graded_length()
    return seen


def test_series_lengths_match_presentations_on_bundled_rings(corpus):
    seen = set()
    for spec in corpus.values():
        seen |= _assert_series_match_presentations(spec, range(1, 5))
    assert seen == {False, True}


def test_series_lengths_match_presentations_on_random_rings(random_specs):
    seen = set()
    for spec in random_specs:
        seen |= _assert_series_match_presentations(spec, range(1, 4))
    assert seen == {False, True}
