import pytest
from functools import reduce as fold
from math import comb

from parres import koszul, oracle
from parres.algebra import (AlgebraError, NotHomogeneousError,
                            RingMismatchError)
from parres.cli import bundled_ring_text
from parres.complexes import homology_presentation
from parres.groebner import INFINITE, FinitelyPresentedModule
from parres.harness import parse_ring_spec
from parres.invariants import maximal_ideal_sequence
from parres.koszul import ParameterSequence, comparison_map, koszul_complex

from conftest import QUINTIC, STAGE_A, bundled_spec, packed
from polyref import mul, power


def test_sequence_validation(r1, r2):
    ring = r1.ring
    parse = ring.ambient.parse

    def sequence(*polys):
        return ParameterSequence(ring, packed(ring.ambient, polys))

    with pytest.raises(AlgebraError):
        sequence(parse("1"))
    with pytest.raises(NotHomogeneousError,
                       match="inhomogeneous sequence element b\\^2 \\+ a"):
        sequence(parse("a + b^2"))
    # the one edge from Polynomials to packed vectors refuses a foreign ring
    with pytest.raises(RingMismatchError, match="outside the ambient ring"):
        ring.ambient.packed(r2.ring.ambient.parse("a"))
    with pytest.raises(AlgebraError, match="degree 1023 exceeds packing"):
        sequence(parse("b^1023"))
    with pytest.raises(AlgebraError, match="degree 1100 exceeds packing"):
        sequence(parse("a"), parse("b^2")).power(550)
    # homogeneity and degree are those of the element reduced modulo
    # I = (ac, bc, c^2): the top part c^2 of c^2 + a lies in I, and c is
    # nilpotent, so its square is no parameter
    assert sequence(parse("c^2 + a")).elements == (parse("a"),)
    with pytest.raises(AlgebraError, match="element c\\^2 is zero in R"):
        sequence(parse("c^2"))
    with pytest.raises(AlgebraError, match="a power of a sequence element "
                                           "is zero in R"):
        sequence(parse("c")).power(2)
    with pytest.raises(AlgebraError, match="positive degree"):
        sequence(parse("3"))


def test_powers_match_the_polynomial_reference(corpus, random_specs):
    # power(n) multiplies the packed elements; the reference raises each
    # element to the n-th power in the exponent-tuple arithmetic of the
    # ambient ring and reduces modulo I
    specs = [*corpus.values(), *random_specs,
             parse_ring_spec(STAGE_A), parse_ring_spec(QUINTIC)]
    checked = 0
    for spec in specs:
        reduce = spec.ring.reduce
        for x in spec.sops.values():
            for n in range(1, 9):
                xn = x.power(n)
                want = tuple(reduce(power(f, n)) for f in x.elements)
                assert xn.elements == want, (spec.name, x, n)
                assert xn.degrees() == tuple(n * d for d in x.degrees())
                assert xn.prefix(1).elements == want[:1]
                assert xn.prefix(1) is x.prefix(1).power(n)
                checked += 1
    assert checked > 350


def test_is_sop(r1, nonflc):
    assert r1.sop("x").is_sop()
    ring = r1.ring
    not_sop = ParameterSequence(ring, packed(ring.ambient, [
        ring.ambient.parse("a"), ring.ambient.parse("a^2")]))
    assert not not_sop.is_sop()
    assert nonflc.sop("y").is_sop()


def test_power_sequence(r1):
    x = r1.sop("x")
    x2 = x.power(2)
    assert x2.degrees() == (2, 2)
    assert x.power(1) is x
    # each power and prefix is made once, with its quotient module
    assert x.power(2) is x2 and x2.prefix(1) is x2.prefix(1)
    assert x2.prefix(x2.count) is x2
    with pytest.raises(AlgebraError):
        x.power(0)


def test_a_prefix_outside_the_sequence_is_an_error(nonflc):
    # neither a slice from the end nor a copy of the whole sequence
    x = nonflc.sop()
    assert x.count == 3 and x.prefix(3) is x
    for r in (-1, 0, 4, 7):
        with pytest.raises(AlgebraError, match="prefix length"):
            x.prefix(r)


def test_koszul_ranks_binomial(r2):
    x = r2.sop()
    k = koszul_complex(x)
    for n in range(x.count + 1):
        assert k.rank(n) == comb(x.count, n)


def test_koszul_h0_is_quotient(r1):
    x = r1.sop("x")
    h0 = x.homology(0)
    assert h0.graded_length() == x.quotient_module().graded_length()
    # d_1 presents R/(x): the complex takes the sequence's own relation
    # matrix, and the sequence counts coker d_1 from its own module
    assert x.complex().differential(1) is x.quotient_module().relations
    assert x._cokernel(1) is x.quotient_module().hilbert_numerator()


def test_known_homology_r1(r1):
    x = r1.sop("x")
    h1 = x.homology(1)
    h2 = x.homology(2)
    assert h1.length() == 2 and h1.graded_length() == {2: 2}
    assert h2.length() == 1 and h2.graded_length() == {3: 1}


def test_regular_sequence_acyclic(regular, hypersurface):
    for spec in (regular, hypersurface):
        x = spec.sop()
        for i in range(1, x.count + 1):
            assert x.homology(i).length() == 0


def test_comparison_map_commutes(r1):
    x = r1.sop("x")
    phi = comparison_map(x, 2)  # K(x^3) -> K(x^2); construction checks
    assert phi.source is x.power(3).complex()
    assert phi.target is x.power(2).complex()
    assert phi.components[0].entry(0, 0) == r1.ring.reduce(
        r1.ring.ambient.parse("1"))
    e = phi.components[1].entry(0, 0)
    assert e == r1.ring.reduce(x.elements[0])
    top = phi.components[x.count].entry(0, 0)
    assert top == r1.ring.reduce(fold(mul, x.elements))


def test_the_prefix_of_the_square_is_the_square_of_the_prefix(monkeypatch):
    # one object, so one R/(y), one Buchberger run for it and one K(y; R),
    # however the part is reached; the root x takes its own for grade(x)
    built, runs = [], []
    real_complex = koszul.koszul_complex
    real_leads = FinitelyPresentedModule._initial_leads

    def building(y):
        built.append(y.elements)
        return real_complex(y)

    def counting(module):
        runs.append(tuple(tuple(sorted(c.items()))
                          for c in module.relations.cols))
        return real_leads(module)

    monkeypatch.setattr(koszul, "koszul_complex", building)
    monkeypatch.setattr(FinitelyPresentedModule, "_initial_leads", counting)
    x = bundled_spec("r2").sop()
    square_of_prefix = x.prefix(1).power(2)
    assert square_of_prefix is x.power(2).prefix(1)
    y = x.ring.reduce(power(x.elements[0], 2))
    assert square_of_prefix.elements == (y,)
    h = square_of_prefix.homology(1)
    assert x.power(2).prefix(1).homology(1) is h
    assert x.prefix(1).power(2).length(1) == h.length()
    x.prefix(1).power(2).quotient_module().length()
    assert built.count((y,)) == 1
    assert runs.count(tuple(tuple(sorted(c.items()))
                            for c in square_of_prefix.relations.cols)) == 1


def test_homology_index_below_zero_is_an_error(r1):
    for read in (r1.sop("x").homology, r1.sop("x").length):
        with pytest.raises(AlgebraError, match="homology index -1"):
            read(-1)
    # K(x; R) has no term above x.count, so H_3 of a 2-element sop is zero
    assert r1.sop("x").homology(3).length() == 0
    assert r1.sop("x").length(3) == 0


def _assert_series_match_presentations(spec, powers):
    """Lengths and graded lengths read off the sequence's Hilbert series
    equal those of the presented H_p(y; R), for y = x^n and for its prefix
    without the last element, which is no sop and has INFINITE lengths."""
    seen = set()
    for x in spec.sops.values():
        for n in powers:
            xn = x.power(n)
            prefix = ParameterSequence(
                spec.ring, packed(spec.ring.ambient, xn.elements[:-1]))
            for y in (xn, prefix):
                for p in range(y.count + 1):
                    _, h = homology_presentation(y.complex(), p)
                    length = y.length(p)
                    assert length == h.length(), (spec.name, y, p)
                    seen.add(length is INFINITE)
                    if length is INFINITE:
                        assert y.graded_length(p) is INFINITE
                    else:
                        assert y.graded_length(p) == \
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


# --- vanishing from the depth -------------------------------------------------


def test_parts_that_know_the_depth_give_the_lengths_of_copies(
        corpus, random_specs):
    # every prefix of x^n, n = 1..4, other than x, takes depth R from the
    # sop x and derives C_p for p > cmd; a copy made by the constructor is
    # its own root and runs Buchberger for each C_p
    compared = derived = 0
    for spec in (*corpus.values(), *random_specs):
        x = spec.sop()
        cmd = spec.ring.dimension() - x.grade()
        for y in (x.power(n).prefix(r) for n in range(1, 5)
                  for r in range(1, x.count + 1)):
            copy = ParameterSequence(spec.ring,
                                     packed(spec.ring.ambient, y.elements))
            for p in range(y.count + 2):
                assert y.graded_length(p) == copy.graded_length(p), \
                    (spec.name, y, p)
                compared += 1
                derived += y is not x and cmd < p <= y.count
    assert compared > 1000 and derived > 150


def test_koszul_homology_above_the_depth_bound_vanishes_in_the_oracle(
        corpus, random_specs):
    # degreewise GF(p) ranks, no Hilbert series: H_p(y; R) = 0 for
    # p > count - depth R + dim R/(y), on prefixes of x and x^2
    defective = [spec for spec in random_specs
                 if spec.ring.dimension()
                 - spec.sop().grade() >= 1][:6]
    assert len(defective) == 6
    checked = 0
    for spec in (*corpus.values(), *defective):
        x = spec.sop()
        depth = x.grade()
        for n in (1, 2):
            for r in range(1, x.count + 1):
                y = x.power(n).prefix(r)
                k = koszul_complex(y)
                bound = r - depth + spec.ring.dimension() - r
                for p in range(bound + 1, r + 1):
                    for t in range(9):
                        assert oracle.homology_dim_at(k, p, t) == 0, \
                            (spec.name, y, p, t)
                    checked += 1
    assert checked > 20


def test_the_depth_spares_the_runs_of_the_vanishing_cokernels(monkeypatch):
    runs = []
    real = FinitelyPresentedModule._initial_leads

    def counting(module):
        runs.append(module.gen_degrees)
        return real(module)

    monkeypatch.setattr(FinitelyPresentedModule, "_initial_leads", counting)
    # r2 has depth 1 and dimension 2: H_2(x^n; R) = 0 forces coker d_2,
    # and only R/(x^n), one generator, takes a run
    x = bundled_spec("r2").sop()
    assert x.grade() == 1
    runs.clear()
    for n in (2, 3):
        for p in range(x.count + 2):
            x.power(n).length(p)
    assert runs == [(0,), (0,)]
    # regular is Cohen-Macaulay: no prefix of x^2 takes a run
    x = bundled_spec("regular").sop()
    assert x.grade() == 2
    runs.clear()
    for r in (1, 2):
        y = x.power(2).prefix(r)
        for p in range(r + 2):
            y.graded_length(p)
        assert y.grade() == r
        assert y._complex is None
    assert x._complex is not None
    assert runs == []


def test_a_grade_of_positive_dimension_teaches_no_depth():
    # grade(x_1) = 1 on the regular ring of depth 2, and R/(x_1) has
    # dimension 1; x_1 made by the constructor is its own root and no sop,
    # so it derives no cokernel and takes no grade of x
    x = bundled_spec("regular").sop()
    x1 = ParameterSequence(x.ring, packed(x.ring.ambient, x.elements[:1]))
    assert x1.grade() == 1 and not x1.is_sop()
    assert x._grade is None
    assert x1._cokernels[1] == x1.quotient_module().hilbert_numerator()
    assert x.grade() == 2


@pytest.mark.parametrize("name, power_runs", [
    ("r2", [((0,), (2, 2)), ((0,), (3, 3))]), ("regular", [])])
def test_a_fresh_table_learns_the_depth_before_the_first_power(
        monkeypatch, name, power_runs):
    # a power of a fresh sop x, asked only its lengths, takes grade(x)
    # itself, so it makes the Buchberger runs it makes when grade(x) is
    # taken first: those of R/(x) and coker d_2 of K(x), then one for
    # R/(x^n) on r2 (cmd 1) and none on the Cohen-Macaulay regular ring
    runs = []
    real = FinitelyPresentedModule._initial_leads

    def counting(module):
        runs.append((module.gen_degrees, module.relations.col_degrees))
        return real(module)

    monkeypatch.setattr(FinitelyPresentedModule, "_initial_leads", counting)
    seen = []
    for given in (True, False):
        # parsed afresh, so that no quotient module has counted already
        x = bundled_spec(name).sop()
        runs.clear()
        if given:
            x.grade()
        lengths = [x.power(n).length(p)
                   for n in (2, 3) for p in range(x.count + 2)]
        seen.append((sorted(runs), lengths, x._grade))
    assert seen[0] == seen[1]
    assert seen[1][0] == sorted([((0,), (1, 1)), ((1, 1), (2,)),
                                 *power_runs])
