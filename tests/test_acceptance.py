"""Acceptance criteria for the whole artifact.

Each test prints one PASS/FAIL line (run with -s to see them on success).
All comparisons are exact integer comparisons with zero tolerance.
"""

import json
import random
from math import comb

import pytest

from parres.cli import main
from parres.complexes import (dual, homology_presentation,
                               minimize_with_tracking)
from parres.groebner import INFINITE
from parres.harness import run_experiment
from parres.invariants import (flc_check, length_stability_check,
                               local_cohomology_lengths, standardness_witness)
from parres.koszul import koszul_complex
from parres.resolutions import (betti_table, cec_injectivity_check,
                                general_cone_resolution,
                                minimal_free_resolution)
from parres import oracle
from conftest import is_minimal


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status}{' - ' + detail if detail else ''}")
    return ok


def _series_quotient(num, den, cap):
    """Coefficients of num/den through t^cap, by series division (den[0] = 1)."""
    out = []
    for n in range(cap + 1):
        c = num[n] if n < len(num) else 0
        out.append(c - sum(den[j] * out[n - j]
                           for j in range(1, min(n, len(den) - 1) + 1)))
    return out


def _r1_residue_field_series(cap):
    """P_k over r1 = k[a,b] x_k k[c]/(c^2) through t^cap.

    For a fibre product, 1/P_R = 1/P_A + 1/P_B - 1 (Dress-Kraemer), so
    P_k = (1+t)^2 / (1 - t - 2t^2 - t^3).
    """
    return _series_quotient([1, 2, 1], [1, -1, -2, -1], cap)


def test_criterion_1_example_reproduction(r1, capsys):
    x = r1.sop("x")
    rep = run_experiment("example", r1.ring, x, 4, 4)
    got = (rep.data["P_H2"], rep.data["P_H1"], rep.data["P_quotient"])
    want = ([1, 3, 6, 13, 28], [2, 6, 12, 26, 56], [1, 2, 3, 7, 15])
    # H_1(a,b; r1) is spanned by c*e_a and c*e_b, both in internal degree 2,
    # so m H_1 = 0 and H_1 = k(-2)^2: P_H1 = 2 P_k, while H_2 = k(-3) gives
    # P_H2 = P_k.  The P_H1 of harness.EXAMPLE_REFERENCE, (3,7,12,26,56),
    # is 2 P_k plus one trivial pair F -> F, not minimal.
    _, h1 = homology_presentation(koszul_complex(x), 1)
    checks = {
        "P_H2 reference": got[0] == want[0],
        "P_H1 reference": got[1] == want[1],
        "P_quotient reference": got[2] == want[2],
        "H_1 length 2": h1.length() == 2,
        "H_1 oracle length 2": oracle.module_length_upto(h1, 4) == 2,
        "H_1 in degree 2 only": h1.graded_length() == {2: 2},
        "P_H2 == closed-form P_k": got[0] == _r1_residue_field_series(4),
        "P_H1 == 2 P_H2": got[1] == [2 * c for c in got[0]],
    }
    failed = [name for name, good in checks.items() if not good]
    with capsys.disabled():
        report(1, not failed, f"got {got} failed {failed}")
    assert not failed, failed


def test_criterion_2_inequality(r1, capsys):
    x = r1.sop("x")
    rep = run_experiment("inequality", r1.ring, x, 4, 4)
    lhs = rep.data["lhs_poincare"]
    rhs = rep.data["rhs_assembly"]
    strict = [i for i, (a, b) in enumerate(zip(lhs, rhs)) if a < b]
    leq = all(a <= b for a, b in zip(lhs, rhs))
    # With P_H1 = 2 P_k and P_H2 = P_k (criterion 1) the assembly is
    # (1+t)^2 + t^2 (2+t) P_k, and P_{R/(a,b)} = (1-t) P_k by Dress-Kraemer.
    # Since (1-t) P_k - t^2 (2+t) P_k = (1+t)^2, the bound is an equality:
    # the cone over minimal resolutions of H_1 and H_2 is itself minimal.
    p_k = _r1_residue_field_series(4)
    want_lhs = [p_k[i] - (p_k[i - 1] if i else 0) for i in range(5)]
    want_rhs = [comb(2, i) for i in range(5)]
    for i in range(2, 5):
        want_rhs[i] += 2 * p_k[i - 2]
    for i in range(3, 5):
        want_rhs[i] += p_k[i - 3]
    cone = general_cone_resolution(x, 4)
    cone_ranks = [cone.rank(i) for i in range(5)]
    checks = {
        "lhs reference": lhs == [1, 2, 3, 7, 15],
        "lhs == (1-t) P_k": lhs == want_lhs,
        "lhs <= rhs": leq,
        "rhs == (1+t)^2 + t^2 P_H1 + t^3 P_H2": rhs == want_rhs,
        "no strict index": strict == [],
        "first_strict_index is None": rep.data["first_strict_index"] is None,
        "cone minimal": is_minimal(cone),
        "cone ranks == lhs": cone_ranks == lhs,
    }
    failed = [name for name, good in checks.items() if not good]
    with capsys.disabled():
        report(2, not failed, f"lhs {lhs} rhs {rhs} strict {strict} "
                              f"cone {cone_ranks} failed {failed}")
    assert not failed, failed


def test_criterion_3_cohen_macaulay_control(regular, hypersurface, capsys):
    ok = True
    details = []
    for spec in (regular, hypersurface):
        d = spec.ring.dimension()
        want = [comb(d, i) for i in range(d + 1)] + [0] * 2
        for n in range(1, 5):
            xn = spec.sop().power(n)
            got = minimal_free_resolution(
                xn.quotient_module(), d + 2).poincare().coefficients
            details.append(f"{spec.name} n={n}: {got}")
            ok = ok and got == want
    with capsys.disabled():
        report(3, ok, "; ".join(details[:2]) + " ...")
    assert ok, details


def test_criterion_4_main_theorem_r2(r2, capsys):
    rep = run_experiment("main-theorem", r2.ring, r2.sop(), 6, 4)
    n = rep.data.get("standard_power")
    ok = isinstance(n, int) and n <= 4 and rep.passed() \
        and len(rep.verdicts) == 3
    tail = rep.data.get("betti_tail_pairs", {})
    ok = ok and all(j in tail and tail[j][0] == tail[j][1] for j in range(4))
    with capsys.disabled():
        report(4, ok, f"n={n} P={rep.data.get('poincare_quotient')} "
                      f"tail={tail}")
    assert ok, rep.to_text()


def test_raised_cap_resolution_of_h1_over_r2(r2):
    """The Betti totals of H_1(x; r2) through cap 9 equal P_k for r2: an
    exact check at a depth the degreewise oracle cannot reach."""
    x = r2.sop("x")
    h1 = x.homology(1)
    # H_1(x; r2) = k(-2), so its minimal resolution is that of k, shifted
    assert h1.length() == 1
    assert h1.graded_length() == {2: 1}
    # r2 = k[a,b] x_k k[c,d], so Dress-Kraemer gives 1/P_k = 2/(1+t)^2 - 1
    p_k = _series_quotient([1, 2, 1], [1, -2, -1], 9)
    assert p_k == [1, 4, 10, 24, 58, 140, 338, 816, 1970, 4756]
    assert minimal_free_resolution(h1, 9).betti().totals() == p_k
    assert betti_table(h1, 9).totals() == p_k


def _standard_corpus_sops(corpus):
    out = []
    for name, spec in corpus.items():
        for sname in spec.sops:
            x = spec.sop(sname)
            if flc_check(x, nmax=spec.cap("power", 4)) is not True:
                continue
            if standardness_witness(x) is None:
                out.append((name, x))
    return out


def test_criterion_5_hoa_formulas(corpus, capsys):
    ok = True
    details = []
    r2_solved = None
    for name, x in _standard_corpus_sops(corpus):
        # local_cohomology_lengths checks the binomial identities for all
        # r <= d, p >= 1 and cross-checks the solved lengths for consistency
        lc = local_cohomology_lengths(x)
        details.append(f"{name}: {lc}")
        if name == "r2":
            r2_solved = lc
    ok = ok and r2_solved == [0, 1]
    with capsys.disabled():
        report(5, ok, "; ".join(details))
    assert r2_solved == [0, 1]
    assert ok


def test_criterion_6_length_stability_and_maps(corpus, capsys):
    ok = True
    details = []
    for name, x in _standard_corpus_sops(corpus):
        rep = length_stability_check(x, nmax=4, check_maps=True)
        stable = rep.all_stable()
        inj = all(rep.injective.values()) if rep.injective else True
        ok = ok and stable and inj
        details.append(f"{name}: stable={stable} injective={inj}")
    with capsys.disabled():
        report(6, ok, "; ".join(details))
    assert ok, details


def test_criterion_7_monotonicity(corpus, capsys):
    ok = True
    details = []
    for name, spec in corpus.items():
        for sname in spec.sops:
            x = spec.sop(sname)
            rep = length_stability_check(x, nmax=4, check_maps=False)
            mono = rep.monotone()
            ok = ok and mono
            details.append(f"{name}/{sname}: monotone={mono}")
    with capsys.disabled():
        report(7, ok, "; ".join(details))
    assert ok, details


def test_criterion_8_cec_injectivity(corpus, capsys):
    ok = True
    details = []
    for name, spec in corpus.items():
        for sname in spec.sops:
            x = spec.sop(sname)
            rep = cec_injectivity_check(x, 6)
            good = all(rep.values())
            ok = ok and good
            details.append(f"{name}/{sname}: {rep}")
    with capsys.disabled():
        report(8, ok, "; ".join(details))
    assert ok, details


def test_criterion_9_oracle_equivalence(corpus, capsys):
    ok = True
    count = 0
    for name, spec in corpus.items():
        for sname in spec.sops:
            x = spec.sop(sname)
            for n in (1, 2):
                xn = x.power(n)
                quot = xn.quotient_module()
                modules = [quot]
                k = koszul_complex(xn)
                for i in range(1, xn.count + 1):
                    _, h = homology_presentation(k, i)
                    modules.append(h)
                for mod in modules:
                    ln = mod.length()
                    if ln is INFINITE:
                        continue
                    top = max(mod.graded_length(), default=0) + 2
                    orc = oracle.module_length_upto(mod, top)
                    ok = ok and ln == orc
                    count += 1
    with capsys.disabled():
        report(9, ok, f"{count} finite-length modules cross-checked")
    assert ok


def test_criterion_10_property_suites(corpus, r1, tmp_path, capsys):
    ok = True
    notes = []

    # (a) dd = 0 on constructed complexes
    for name, spec in corpus.items():
        x = spec.sop()
        k = koszul_complex(x)
        for n in range(k.lo + 2, k.hi + 1):
            if not (k.differential(n - 1) @ k.differential(n)).is_zero():
                ok = False
    cone = general_cone_resolution(r1.sop("x"), 3)
    for n in range(2, 5):
        if cone.module(n):
            if not (cone.differential(n - 1) @ cone.differential(n)).is_zero():
                ok = False
    notes.append("dd=0")

    # (b) minimization preserves homology lengths (degreewise oracle)
    mini = minimize_with_tracking(cone)[0]
    for n in range(0, 4):
        for d in range(0, 8):
            if oracle.homology_dim_at(cone, n, d) != \
                    oracle.homology_dim_at(mini, n, d):
                ok = False
    notes.append("minimize")

    # (c) Koszul self-duality on 100 randomized (ring, sop, i) triples
    rng = random.Random(20260823)
    names = sorted(corpus)
    cache = {}
    for _ in range(100):
        name = rng.choice(names)
        spec = corpus[name]
        sname = rng.choice(sorted(spec.sops))
        x = spec.sop(sname)
        i = rng.randrange(0, x.count + 1)
        if (name, sname) not in cache:
            k = koszul_complex(x)
            cache[(name, sname)] = (k, dual(k))
        k, dk = cache[(name, sname)]
        _, hi = homology_presentation(k, i)
        _, hco = homology_presentation(dk, -(x.count - i))
        if hi.length() != hco.length():
            ok = False
    notes.append("duality x100")

    # (d) determinism: byte-identical structured reports
    outs = []
    for run in range(2):
        out = tmp_path / f"det{run}.json"
        main(["invariants", "--ring", "r1", "--sop", "x",
              "--format", "structured", "--out", str(out)])
        outs.append(out.read_bytes())
    if outs[0] != outs[1]:
        ok = False
    json.loads(outs[0])  # well-formed
    notes.append("determinism")

    with capsys.disabled():
        report(10, ok, ", ".join(notes))
    assert ok
