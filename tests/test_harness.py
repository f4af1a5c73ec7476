import ast
import io
import json
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from parres import (complexes, groebner, harness, invariants, koszul,
                    oracle, resolutions)
from parres.algebra import (IDENTIFIER, MAX_NESTING, AlgebraError,
                            NotHomogeneousError, PolyParseError,
                            PolynomialRingSpec)
from parres.cli import build_parser, bundled_ring_text, main, run
from parres.harness import (EXPERIMENTS, load_ring_spec, parse_ring_spec,
                            run_experiment)

GOOD = """
# comment
[field]
32003
[vars]
a b c
[ideal]
a*c
b*c
c^2
[sop x]
a
b
[caps]
homological = 4
power = 4
"""


def test_parse_ring_spec_roundtrip():
    spec = parse_ring_spec(GOOD)
    assert spec.ring.dimension() == 2
    assert spec.sop("x").degrees() == (1, 1)
    assert spec.cap("homological", 0) == 4
    assert spec.sop().name == "x"


def test_parse_empty_ideal_is_polynomial_ring():
    spec = parse_ring_spec("[field]\n7\n[vars]\na b\n[ideal]\n[sop x]\na\nb\n")
    assert spec.ring.is_polynomial_ring()
    assert spec.ring.dimension() == 2


def test_parse_rejects_inhomogeneous_generator():
    text = "[field]\n7\n[vars]\na b c\n[ideal]\na*c + b\n"
    with pytest.raises(NotHomogeneousError) as exc:
        parse_ring_spec(text)
    assert "line 6" in str(exc.value)


def test_parse_error_carries_line():
    with pytest.raises(PolyParseError) as exc:
        parse_ring_spec("[field]\n7\n[vars]\na b\n[ideal]\na + * b\n")
    assert exc.value.line == 6


@pytest.mark.parametrize("names", ["1 b", "a-b c", "x^2 y"])
def test_parse_rejects_variable_names_the_grammar_cannot_write(names):
    # "1 b" would make k[b]/(b^2) a ring of dimension 1
    bad = names.split()[0]
    with pytest.raises(PolyParseError,
                       match=f"bad variable name '{re.escape(bad)}'") as exc:
        parse_ring_spec(f"[field]\n7\n[vars]\n{names}\n[ideal]\nb^2\n")
    assert exc.value.line == 4


def _ring_text(draw):
    """A ring file of small rings with odd parts: misspelled headers, names
    the grammar cannot write, long literals, large exponents and caps far
    outside 0..1022."""
    def odd():
        return draw(st.integers(0, 7)) == 5

    names = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                          max_size=3, unique=not odd()))
    if odd():
        names.append(draw(st.sampled_from(["1", "a-b", "x^2"])))
    writable = [n for n in names if IDENTIFIER.fullmatch(n)] or ["a"]

    def poly():
        terms = []
        for _ in range(2 if odd() else 1):
            digits = draw(st.integers(1, 700) if odd() else st.integers(1, 3))
            coefficient = str(draw(st.integers(1, 9))) * digits
            powers = []
            for _ in range(2 if odd() else 1):
                e = draw(st.integers(0, 1100) if odd() else st.integers(1, 2))
                powers.append(f"{draw(st.sampled_from(writable))}^{e}")
            terms.append("*".join([coefficient, *powers]))
        return " + ".join(terms)

    cap = st.one_of(st.integers(-2, 3), st.integers(1023, 10**20))
    sections = [
        ("field", [draw(st.sampled_from(["2", "7", "32003"]) if not odd()
                        else st.sampled_from(["4", "x", "9" * 700]))]),
        ("vars", [" ".join(names)]),
        ("ideal", [poly() for _ in range(draw(st.integers(0, 2)))]),
        ("sop x", [poly() for _ in range(draw(st.integers(1, 2)))]),
        ("caps", [f"homological = {draw(cap)}"]),
    ]
    lines = []
    for header, body in sections:
        if odd():
            header = draw(st.sampled_from(["feild", "var", "sop", "cap s"]))
        lines += [f"[{header}]", *body]
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_every_ring_file_runs_or_fails_in_one_line(tmp_path_factory, data):
    # the input contract: a ring file parses, or the CLI exits 1 with one
    # error line and no traceback, before any long computation
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.ring"
    path.write_text(_ring_text(data.draw))
    for command in ("resolve", "koszul"):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([command, "--ring", str(path)])
        assert code in (0, 1, 2)
        lines = err.getvalue().splitlines()
        if code == 1:
            assert len(lines) == 1 and lines[0].startswith("error: ")
        else:
            assert lines == []


def test_cli_reports_a_long_literal_in_one_line(capsys, tmp_path):
    spec = tmp_path / "long.ring"
    spec.write_text("[field]\n7\n[vars]\na b\n[ideal]\n"
                    + "1" * 5000 + "*a\n[sop x]\nb\n")
    assert main(["invariants", "--ring", str(spec)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "integer literal of 5000 digits" in err
    assert "(line 6, column 1)" in err


@pytest.mark.parametrize("ideal, sop, where", [
    ("a^600*b^600", "a", "(line 6, column 7)"),
    ("a^2", "(a+b)^600*(a-b)^600", "(line 8, column 11)"),
], ids=["ideal", "sop"])
def test_cli_reports_a_product_past_the_packing_limit_in_one_line(
        capsys, tmp_path, ideal, sop, where):
    # the product is refused before its keys are added, so no key wraps
    # into a wrong element
    spec = tmp_path / "product.ring"
    spec.write_text(f"[field]\n32003\n[vars]\na b\n[ideal]\n{ideal}\n"
                    f"[sop x]\n{sop}\n")
    assert main(["resolve", "--ring", str(spec)]) == 1
    assert capsys.readouterr().err == \
        f"error: degree 1200 exceeds packing limit {where}\n"


def test_parse_unknown_variable():
    with pytest.raises(PolyParseError):
        parse_ring_spec("[field]\n7\n[vars]\na b\n[ideal]\na*z\n")


def test_parse_bad_sections():
    with pytest.raises(PolyParseError):
        parse_ring_spec("[junk]\n")
    with pytest.raises(PolyParseError):
        parse_ring_spec("orphan line\n")
    with pytest.raises(PolyParseError):
        parse_ring_spec("[field]\nseven\n")
    with pytest.raises(AlgebraError):
        parse_ring_spec("[vars]\na\n")  # missing [field]


@pytest.mark.parametrize("header", ["sopranos x", "sops x", "[]", ""])
def test_parse_takes_only_the_word_sop_as_a_sop_header(header):
    # the header's first word must be exactly "sop"; any other is an
    # unknown section at its line, not a sop named after the second word
    text = f"[field]\n7\n[vars]\na b\n[{header}]\na\nb\n"
    with pytest.raises(PolyParseError, match="unknown section") as exc:
        parse_ring_spec(text)
    assert exc.value.line == 5
    with pytest.raises(PolyParseError, match="sop section needs a name"):
        parse_ring_spec("[field]\n7\n[vars]\na b\n[sop]\na\n")
    assert parse_ring_spec("[field]\n7\n[vars]\na b\n[ sop\tx ]\na\n"
                           "b\n").sop("x").count == 2


def test_load_ring_spec_from_file(tmp_path):
    path = tmp_path / "test.ring"
    path.write_text(GOOD, encoding="utf-8")
    spec = load_ring_spec(path)
    assert spec.ring.dimension() == 2


def test_bundled_rings_all_parse():
    for name in ("r1", "r2", "regular", "hypersurface", "nonflc"):
        spec = parse_ring_spec(bundled_ring_text(name), name=name)
        for sname in spec.sops:
            assert spec.sop(sname).count >= 2


def test_report_determinism(r1):
    a = run_experiment("inequality", r1.ring, r1.sop("x"), 3, 4)
    b = run_experiment("inequality", r1.ring, r1.sop("x"), 3, 4)
    assert a.to_json() == b.to_json()
    doc = json.loads(a.to_json())
    assert doc["experiment"] == "inequality"
    assert all(set(v) == {"claim", "pass", "left", "right"}
               for v in doc["verdicts"])


def test_timings_in_text_not_structured(r1):
    rep = run_experiment("example", r1.ring, r1.sop("x"), 2, 4)
    assert "time " in rep.to_text()
    assert "time" not in json.loads(rep.to_json())
    assert "timings" not in json.loads(rep.to_json())


def _text_value(raw):
    """A one-line text-report value as the structured report holds it."""
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        return raw
    return json.loads(json.dumps(value))


@pytest.mark.parametrize("command", list(EXPERIMENTS))
def test_text_report_agrees_with_structured(command):
    # r1's reports carry all three marks: example FAILs, and main-theorem
    # gives an INFO verdict for its cmd <= 1 hypothesis
    rep = run(build_parser().parse_args([command, "--ring", "r1"]))
    doc = json.loads(rep.render("structured"))
    lines = rep.render("text").splitlines()
    assert lines[0] == f"experiment: {doc['experiment']}"
    keys = ["ring", "sop", *EXPERIMENTS[command][1]]
    assert sorted(doc["inputs"]) == sorted(keys)
    assert lines[1:1 + len(keys)] == [f"  input {k}: {doc['inputs'][k]}"
                                      for k in keys]
    body = lines[1 + len(keys):]
    data = {}
    i = 0
    while not body[i].startswith(("  [", "  time ")):
        line = body[i][2:]
        i += 1
        if line.endswith(":"):  # a multi-line string, indented below
            rows = []
            while body[i].startswith("    "):
                rows.append(body[i][4:])
                i += 1
            data[line[:-1]] = rows
        else:
            key, raw = line.split(": ", 1)
            data[key] = _text_value(raw)
    assert data == {k: v.splitlines() if isinstance(v, str) and "\n" in v
                    else v for k, v in doc["data"].items()}
    marks = {True: "PASS", False: "FAIL", None: "INFO"}
    verdicts = doc["verdicts"]
    for line, v in zip(body[i:i + len(verdicts)], verdicts):
        assert line.startswith(f"  [{marks[v['pass']]}] {v['claim']}: ")
    tail = body[i + len(verdicts):]
    assert len(tail) == 2 and tail[0].startswith("  time total: ")
    passed = all(v["pass"] is not False for v in verdicts)
    assert tail[1] == f"result: {'PASS' if passed else 'FAIL'}"


def test_main_theorem_on_an_artinian_ring(tmp_path):
    # dim 0 and the empty sop: K(x; R) = R, so H_1 = 0 and the theorem
    # reads P_{R/(x)} = 1 = (1+t)^0 + t^2 * 0
    spec = tmp_path / "artinian.ring"
    spec.write_text("[field]\n7\n[vars]\na b\n[ideal]\na^2\nb^2\n"
                    "[sop x]\n")
    out = tmp_path / "report.json"
    assert main(["main-theorem", "--ring", str(spec), "--format",
                 "structured", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["data"]["poincare_quotient"] == [1, 0, 0, 0, 0]
    assert doc["data"]["poincare_h"] == [0, 0, 0, 0, 0]
    assert [v["pass"] for v in doc["verdicts"]] == [True, True, True]


def test_main_theorem_on_a_non_sop_is_an_error(capsys, tmp_path):
    # the cmd hypothesis is read off a sop only: r1 with x = (a) used to
    # report it NOT-APPLICABLE from the maximal ideal's depth
    spec = tmp_path / "r1_short.ring"
    spec.write_text(bundled_ring_text("r1").replace("a\nb\n[caps]",
                                                    "a\n[caps]"))
    assert main(["main-theorem", "--ring", str(spec)]) == 1
    assert "reference sequence is not a sop of R" in capsys.readouterr().err


def test_invariants_on_an_artinian_ring_with_a_sop_is_an_error(capsys,
                                                               tmp_path):
    # only the empty sequence is a sop of an artinian ring
    spec = tmp_path / "artinian.ring"
    spec.write_text("[field]\n7\n[vars]\na b\n[ideal]\na^2\nb^2\n"
                    "[sop x]\na\n")
    assert main(["invariants", "--ring", str(spec)]) == 1
    assert "reference sequence is not a sop of R" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["standard", "scan"])
@pytest.mark.parametrize("nilpotency", [3, 9])
def test_standard_and_scan_reject_a_non_sop_on_an_artinian_ring(
        capsys, tmp_path, command, nilpotency):
    # a is no sop of the artinian k[a,b]/(a^e, b^e): the check comes before
    # any power of a, whose cube vanishes for e = 3 and is nonzero for e = 9
    spec = tmp_path / "artinian.ring"
    spec.write_text(f"[field]\n32003\n[vars]\na b\n[ideal]\na^{nilpotency}"
                    f"\nb^{nilpotency}\n[sop x]\na\n")
    assert main([command, "--ring", str(spec)]) == 1
    assert capsys.readouterr().err.strip() == \
        "error: reference sequence is not a sop of R"


@pytest.mark.parametrize("command", EXPERIMENTS)
def test_a_zero_sequence_element_is_an_error_of_its_own(capsys, tmp_path,
                                                         command):
    # c^2 lies in r1's ideal: it has degree 2 in S and is zero in R
    spec = tmp_path / "r1_zero.ring"
    spec.write_text(bundled_ring_text("r1").replace("a\nb\n[caps]",
                                                    "c^2\n[caps]"))
    assert main([command, "--ring", str(spec)]) == 1
    assert capsys.readouterr().err == \
        "error: sequence element c^2 is zero in R\n"


def test_invariants_rejects_a_non_sop_before_any_work(capsys, tmp_path):
    # dim k[v0..v17]/(v1^2) = 17, so the one-element x is no sop: it fails
    # on its count, with no Koszul complex of the maximal ideal built
    spec = tmp_path / "wide.ring"
    names = " ".join(f"v{i}" for i in range(18))
    spec.write_text(f"[field]\n32003\n[vars]\n{names}\n[ideal]\nv1^2\n"
                    "[sop x]\nv0\n")
    start = time.perf_counter()
    assert main(["invariants", "--ring", str(spec)]) == 1
    assert time.perf_counter() - start < 1
    assert "reference sequence is not a sop of R" in capsys.readouterr().err


@pytest.mark.parametrize("argv, cap", [
    (["resolve", "--ring", "regular", "--cap", "100000000"], 100000000),
    (["main-theorem", "--ring", "r2_cap.ring"], 100000000),
    (["resolve", "--ring", "regular", "--cap", "-1"], -1),
    (["resolve", "--ring", "regular", "--cap", "1023"], 1023),
])
def test_a_cap_outside_the_packing_limit_fails_before_any_step(
        capsys, tmp_path, monkeypatch, argv, cap):
    # the steps run on to the cap after a resolution has ended, so a cap
    # past 1022 once ran for minutes; from --cap or [caps], it is an error
    # before the first syzygy step
    def fail(*args, **kwargs):
        raise AssertionError("took a syzygy step")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "r2_cap.ring").write_text(bundled_ring_text("r2").replace(
        "homological = 4", f"homological = {cap}"))
    monkeypatch.setattr(resolutions, "syzygies", fail)
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == \
        f"error: resolution cap {cap} is outside 0..1022\n"


def test_the_largest_cap_runs(capsys):
    # betti_table resolves through cap - 1 and reads the last row itself;
    # cap 1022 is inside the packing limit, and the regular ring's
    # resolution ends at 2, so the steps past it take no syzygy
    assert main(["resolve", "--ring", "regular", "--cap", "1022",
                 "--format", "structured"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["data"]["betti"] == {"0,0": 1, "1,1": 2, "2,2": 1}


def test_main_theorem_guard_on_r1(r1):
    rep = run_experiment("main-theorem", r1.ring, r1.sop("x"), 3, 4)
    assert any(v["right"] == "NOT-APPLICABLE" for v in rep.verdicts)
    assert rep.passed()  # guard verdicts are informational


def test_a_report_spells_its_sentinels(nonflc):
    # the sentinel is recorded as it is; each form writes its name
    rep = run_experiment("standard", nonflc.ring, nonflc.sop("y"), 2, 3)
    assert rep.data["standard_power"] is invariants.NOT_FOUND
    assert rep.verdicts[0]["left"] is invariants.NOT_FOUND
    doc = json.loads(rep.to_json())
    assert doc["data"]["standard_power"] == "NOT-FOUND"
    assert doc["verdicts"][0]["left"] == "NOT-FOUND"
    lines = rep.to_text().splitlines()
    assert "  standard_power: NOT-FOUND" in lines
    assert "  [FAIL] standard power found: NOT-FOUND vs <= 3" in lines


def test_series_leq_stops_at_the_first_violation():
    # (holds, the first strict index while it holds, else the violated one)
    leq = harness._series_leq
    assert leq([1, 2, 3], [1, 2, 3]) == (True, None)
    assert leq([1, 2, 3], [1, 3, 3]) == (True, 1)
    assert leq([1, 2, 3], [1, 3, 4]) == (True, 1)
    assert leq([1, 2, 3], [1, 3, 2]) == (False, 2)
    assert leq([2, 0, 0], [1, 5, 5]) == (False, 0)
    assert leq([], []) == (True, None)


def test_cone_series_truncates_the_assembly_at_the_cap():
    # (1+t)^2 + t^2 (2 + 6t + 18t^2) + t^3 (1 + t), through t^3
    cone = harness._cone_series
    assert cone(2, {1: [2, 6, 18], 2: [1, 1]}, 3) == [1, 2, 3, 7]
    assert cone(2, {1: [2, 6, 18], 2: [1, 1]}, 5) == [1, 2, 3, 7, 19, 0]
    assert cone(2, {1: [2, 6, 18]}, 0) == [1]
    assert cone(3, {}, 1) == [1, 3]
    assert cone(1, {}, 3) == [1, 1, 0, 0]


def test_scan_on_nonflc_still_runs(nonflc):
    rep = run_experiment("scan", nonflc.ring, nonflc.sop("y"), 2, 2)
    assert "betti_totals" in rep.data


def test_cli_parser_flags():
    parser = build_parser()
    args = parser.parse_args(["resolve", "--ring", "r1", "--sop", "x",
                              "--cap", "3", "--format", "structured"])
    assert args.command == "resolve" and args.cap == 3
    args = parser.parse_args(["scan", "--ring", "r2", "--power-max", "2"])
    assert args.power_max == 2


def test_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["resolve", "--ring", "r1", "--sop", "x", "--cap", "2",
                 "--format", "structured", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["data"]["poincare"] == [1, 2, 3]
    code2 = main(["resolve", "--ring", "r1", "--sop", "x", "--cap", "2"])
    captured = capsys.readouterr()
    assert code2 == 0 and "betti" in captured.out


def test_cli_byte_identical_runs(tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"run{i}.json"
        main(["koszul", "--ring", "r1", "--sop", "x",
              "--format", "structured", "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_errors(capsys, tmp_path):
    assert main(["resolve", "--ring", str(tmp_path / "missing.ring")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.ring"
    bad.write_text("[field]\n7\n[vars]\na b\n[ideal]\na + * b\n")
    assert main(["resolve", "--ring", str(bad)]) == 1
    assert main(["koszul", "--ring", "r1", "--sop", "nope"]) == 1


_VARS_AB = "[field]\n7\n[vars]\na b\n"


_NO_SOP = "[field]\n32003\n[vars]\na b\n[ideal]\na*b\n"


@pytest.mark.parametrize("text, message, argv", [
    ("[field]\n7\n[vars]\na a\n[sop x]\na\n", "duplicate variable names",
     ["resolve"]),
    (_VARS_AB + "[ideal]\na b\n[sop x]\nb\n",
     "unexpected trailing token 'b' (line 6, column 3)", ["resolve"]),
    (_VARS_AB + "[ideal]\n(a + b\n[sop x]\nb\n",
     "expected ')' (line 6, column 7)", ["resolve"]),
    (_VARS_AB + "[ideal]\na^b\n[sop x]\nb\n",
     "expected integer exponent after '^' (line 6, column 3)", ["resolve"]),
    ("[field\n7\n", "unterminated section header (line 1)", ["resolve"]),
    (_VARS_AB + "[sop x]\na\nb\n[caps]\nhomological 3\n",
     "caps entries are key = value (line 9)", ["resolve"]),
    (_VARS_AB + "[sop x]\na\nb\n[caps]\nhomological = x\n",
     "bad cap value 'x' (line 9)", ["resolve"]),
    ("[field]\n7\n", "ring spec missing [vars]", ["resolve"]),
    (_VARS_AB + "[ideal]\n1\n[sop x]\na\n",
     "defining ideal contains a unit", ["resolve"]),
    (_VARS_AB + "[sop x]\na\nb\n[sop y]\nb\na\n",
     "ring spec has sops ['x', 'y']; pick one", ["resolve"]),
    (_NO_SOP, "ring spec has no [sop] section; only invariants runs without "
     "one", ["resolve"]),
    (_NO_SOP, "no sop named 'x': ring spec has no [sop] section; only "
     "invariants runs without one", ["resolve", "--sop", "x"]),
    (_NO_SOP, "no sop named 'x': ring spec has no [sop] section; only "
     "invariants runs without one", ["invariants", "--sop", "x"]),
], ids=["duplicate-vars", "trailing-token", "unclosed-paren",
        "non-integer-exponent", "unterminated-header", "caps-no-equals",
        "bad-cap-value", "missing-vars", "unit-ideal", "two-sops", "no-sop",
        "no-sop-named", "invariants-no-sop-named"])
def test_each_input_error_is_one_line(capsys, tmp_path, text, message,
                                      argv):
    # each of these raises only on its malformed input: the CLI prints the
    # message, with the line and column where the parser has them, on one
    # error line and exits 1, with no traceback
    spec = tmp_path / "bad.ring"
    spec.write_text(text)
    assert main([argv[0], "--ring", str(spec), *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


def test_a_ring_file_that_is_not_utf8_is_one_error_line(capsys, tmp_path):
    spec = tmp_path / "bad.ring"
    spec.write_bytes(b"\xff\xfe[field]\n7\n")
    with pytest.raises(AlgebraError, match="not UTF-8") as exc:
        load_ring_spec(spec)
    assert str(spec) in str(exc.value)
    assert main(["resolve", "--ring", str(spec)]) == 1
    assert capsys.readouterr().err == f"error: {exc.value}\n"


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1, 400])
def test_parentheses_nest_up_to_a_fixed_depth(capsys, tmp_path, depth):
    # past the limit the parse fails at the ( that passes it, before the
    # recursive descent nears the interpreter's recursion limit
    spec = tmp_path / "nested.ring"
    spec.write_text(_VARS_AB + "[ideal]\n" + "(" * depth + "a^2"
                    + ")" * depth + "\n[sop x]\nb\n")
    code = main(["resolve", "--ring", str(spec)])
    err = capsys.readouterr().err
    if depth <= MAX_NESTING:
        assert (code, err) == (0, "")
    else:
        assert code == 1
        assert err == (f"error: parentheses nested deeper than {MAX_NESTING}"
                       f" (line 6, column {MAX_NESTING + 1})\n")


def test_parse_rejects_unknown_caps():
    # only homological and power are caps; any other key, a misspelt one
    # included, is an error at its line rather than silently ignored
    for extra in ("internal = 3", "homologcal = 6"):
        text = bundled_ring_text("r2") + extra + "\n"
        with pytest.raises(PolyParseError) as exc:
            parse_ring_spec(text)
        assert exc.value.line == len(text.splitlines())
        assert f"line {exc.value.line}" in str(exc.value)


def test_cli_rejects_internal_cap(capsys, tmp_path):
    spec = tmp_path / "r2_internal.ring"
    text = bundled_ring_text("r2") + "internal = 3\n"
    spec.write_text(text)
    assert main(["invariants", "--ring", str(spec)]) == 1
    err = capsys.readouterr().err
    assert "internal" in err and f"line {len(text.splitlines())}" in err


@pytest.mark.parametrize("extra, offset, word", [
    ("homological = 6", 1, "cap 'homological'"),
    ("[sop x]\na", 1, "sop 'x'"),
    ("[field]\n101", 2, "characteristic '101'"),
])
def test_parse_rejects_repeated_entries(capsys, tmp_path, extra, offset, word):
    # a repeated cap, sop or characteristic is an input error at its line,
    # not a silent override of the earlier value
    base = bundled_ring_text("r2")
    text = base + extra + "\n"
    line = len(base.splitlines()) + offset
    with pytest.raises(PolyParseError) as exc:
        parse_ring_spec(text)
    assert exc.value.line == line and word in str(exc.value)
    spec = tmp_path / "r2_repeated.ring"
    spec.write_text(text)
    assert main(["invariants", "--ring", str(spec)]) == 1
    err = capsys.readouterr().err
    assert word in err and f"line {line}" in err


def test_characteristic_bound(capsys, tmp_path):
    # 2^31 - 1 is the largest accepted prime, the top of the range the
    # tests cover, and gf_rank is exact there
    p = 2147483647
    assert PolynomialRingSpec(p, ["a"]).characteristic == p
    rank_one = [{0: p - 2, 1: p - 3}, {0: 2 * (p - 2) % p, 1: 2 * (p - 3) % p}]
    assert oracle.gf_rank(rank_one, p) == 1
    with pytest.raises(AlgebraError) as exc:
        PolynomialRingSpec(2147483659, ["a"])
    assert "2^31" in str(exc.value)
    spec = tmp_path / "big_field.ring"
    spec.write_text("[field]\n4294967311\n[vars]\na b\n[sop x]\na\nb\n")
    assert main(["koszul", "--ring", str(spec)]) == 1
    assert "4294967311" in capsys.readouterr().err


def test_main_theorem_resolves_each_module_once(monkeypatch, r2):
    resolved = []

    def wrap(real):
        def counting(module, cap):
            resolved.append((module.gen_degrees, module.relations))
            return real(module, cap)
        return counting

    for mod in (harness, resolutions):
        monkeypatch.setattr(mod, "betti_table", wrap(mod.betti_table))
    witnessed = []

    def wrap_witness(real):
        def counting(x, *args, **kwargs):
            witnessed.append(repr(x))
            return real(x, *args, **kwargs)
        return counting

    for mod in (harness, invariants):
        monkeypatch.setattr(mod, "standardness_witness",
                            wrap_witness(mod.standardness_witness))
    rep = run_experiment("main-theorem", r2.ring, r2.sop("x"), 4, 4)
    n = rep.data["standard_power"]
    standard = rep.data["betti_totals_by_standard_power"]
    assert n in standard
    # H_1(x^n), then R/(x^m) once for each standard power m (n included)
    assert len(resolved) == 1 + len(standard)
    for i, a in enumerate(resolved):
        assert all(a != b for b in resolved[i + 1:])
    # the standardness of each power x^1..x^4 is decided once
    assert len(witnessed) == len(set(witnessed)) == 4
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden" \
        / "default" / "r2.main-theorem.json"
    assert rep.render("structured") == golden.read_text(encoding="utf-8")


def _complex_key(cplx):
    return tuple((n, frozenset(d.entries.items()))
                 for n, d in sorted(cplx.differentials.items()))


def _wrap_everywhere(monkeypatch, fn, wrapper):
    for name, mod in list(sys.modules.items()):
        if name == "parres" or name.startswith("parres."):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, wrapper)


def _count_koszul_complexes(monkeypatch):
    built = []
    real_complex = koszul.koszul_complex

    def counting_complex(y):
        cplx = real_complex(y)
        built.append(_complex_key(cplx))
        return cplx

    _wrap_everywhere(monkeypatch, real_complex, counting_complex)
    return built


# Lengths come from Hilbert series, so the experiments that only count
# present no Koszul homology; inequality and example resolve H_p(x; R), and
# main-theorem resolves H_1(x^n; R) once it finds a standard power, which
# it does on r2 only (r1 has cmd 2).  resolve meets no Koszul homology.
PRESENTING = {("inequality", "r1"), ("inequality", "r2"), ("example", "r1"),
              ("example", "r2"), ("main-theorem", "r2")}


@pytest.mark.parametrize("command", ["invariants", "standard",
                                     "main-theorem", "koszul", "inequality",
                                     "example", "scan"])
@pytest.mark.parametrize("ring", ["r1", "r2"])
def test_experiment_presents_each_koszul_homology_once(monkeypatch, command,
                                                       ring):
    presented = []
    real_present = complexes.homology_presentation
    built = _count_koszul_complexes(monkeypatch)

    def counting_present(cplx, n):
        presented.append((_complex_key(cplx), n))
        return real_present(cplx, n)

    _wrap_everywhere(monkeypatch, real_present, counting_present)
    run(build_parser().parse_args([command, "--ring", ring]))
    assert bool(presented) == ((command, ring) in PRESENTING)
    assert len(set(built)) == len(built)
    assert len(set(presented)) == len(presented)


def test_koszul_counts_each_cokernel_once(monkeypatch):
    # r2's sop has two elements: the series of H_0, H_1 and H_2 take one
    # Buchberger run each for coker d_1 = R/(x) and coker d_2, shared by the
    # H_p on either side; coker d_3 = F_2 is free and takes R's numerator
    counted = []
    real = groebner.FinitelyPresentedModule._initial_leads

    def counting(module):
        counted.append((module.gen_degrees, module.relations.col_degrees))
        return real(module)

    monkeypatch.setattr(groebner.FinitelyPresentedModule, "_initial_leads",
                        counting)
    run(build_parser().parse_args(["koszul", "--ring", "r2"]))
    assert len(counted) == len(set(counted)) == 2


@pytest.mark.parametrize("command", ["standard", "invariants",
                                     "main-theorem"])
def test_one_search_decides_flc_and_the_standard_power(monkeypatch, capsys,
                                                        command):
    # each experiment that reads the FLC verdict or the standard power asks
    # find_standard_power once, and only that search runs flc_check
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        _wrap_everywhere(monkeypatch, fn, wrapper)

    counted(invariants.find_standard_power)
    counted(invariants.flc_check)
    run(build_parser().parse_args([command, "--ring", "r2"]))
    assert calls == ["find_standard_power", "flc_check"]


@pytest.mark.parametrize("command", ["standard", "scan"])
@pytest.mark.parametrize("ring", ["r2", "nonflc"])
def test_powers_take_no_run_for_a_cokernel_the_depth_forces(monkeypatch,
                                                            command, ring):
    # both rings have cmd 1, and each power and prefix takes the depth from
    # the sop, so a Koszul cokernel of two or more generators takes a
    # Buchberger run only over x itself, never over a power or a prefix
    spec = parse_ring_spec(bundled_ring_text(ring))
    x = spec.sop()
    k = koszul.koszul_complex(x)
    own = {k.module(p - 1) for p in range(2, x.count + 1)}
    runs = []
    real = groebner.FinitelyPresentedModule._initial_leads

    def counting(module):
        runs.append(module.gen_degrees)
        return real(module)

    monkeypatch.setattr(groebner.FinitelyPresentedModule, "_initial_leads",
                        counting)
    run_experiment(command, spec.ring, x, 4, 4)
    wide = {g for g in runs if len(g) > 1}
    assert wide and wide <= own


@pytest.mark.parametrize("ring", ["r1", "r2"])
def test_length_stability_builds_each_koszul_complex_once(monkeypatch, ring):
    # the lengths and the comparison maps read each power's own complex
    spec = parse_ring_spec(bundled_ring_text(ring))
    built = _count_koszul_complexes(monkeypatch)
    rep = invariants.length_stability_check(spec.sop(), nmax=4, check_maps=True)
    assert len(rep.injective) == 3
    assert len(set(built)) == len(built) == 4


def test_cli_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name, (help_text, _, _) in EXPERIMENTS.items():
        assert f"{name} " in out and help_text in out
    for argv in (["bogus", "--ring", "r1"], ["resolve"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_example_on_a_one_element_sop(tmp_path):
    # H_2 of a one-element sequence is zero: the experiment reports FAIL
    # against the r1 reference rather than an error
    spec = tmp_path / "dim1.ring"
    spec.write_text("[field]\n101\n[vars]\na b\n[ideal]\na*b\n"
                    "[sop x]\na+b\n")
    out = tmp_path / "report.json"
    assert main(["example", "--ring", str(spec), "--cap", "3",
                 "--format", "structured", "--out", str(out)]) == 2
    data = json.loads(out.read_text())["data"]
    assert data["P_H2"] == data["P_H1"] == [0, 0, 0, 0]
    assert data["P_quotient"] == [1, 1, 0, 0]


@pytest.mark.parametrize("argv, word", [
    (["standard", "--ring", "r2", "--power-max", "1"], "power bound 1"),
    (["invariants", "--ring", "r2", "--power-max", "1"], "power bound 1"),
    (["main-theorem", "--ring", "r2", "--power-max", "1"], "power bound 1"),
    (["scan", "--ring", "r2", "--power-max", "0"], "power bound 0"),
])
def test_power_bounds_that_cannot_work_are_errors(capsys, argv, word):
    # the FLC check compares x^(nmax-1) with x^nmax, and a scan needs at
    # least one power
    assert main(argv) == 1
    assert word in capsys.readouterr().err


def test_scan_checks_the_packing_limit_before_any_power(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("resolved a power before the packing check")

    monkeypatch.setattr(harness, "betti_table", fail)
    assert main(["scan", "--ring", "r2", "--power-max", "600",
                 "--cap", "1"]) == 1
    assert "exceeds packing limit" in capsys.readouterr().err
