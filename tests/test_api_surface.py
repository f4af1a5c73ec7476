"""Code with no callers is deleted.

Every public top-level function and class of `src/parres` and every public
method of its top-level classes must be used, as a name or an attribute,
somewhere in `src/`.  The exceptions are listed below, each with its reason;
an exception fails too once its name is gone or has gained a caller in
`src/`.  Every private top-level function and private method (dunders
aside) must be used in `src/` outside its own body, with no exception.  The scan is by name, so a method counts as used when any attribute
of that name is read.  A public method or property whose name another src
definition shares is therefore listed with every definition of that name,
each with its src caller or the reason it has none.

The optional parameters are a listed set too, so that a new knob comes with
an edit to the list and its reason.  And the package imports nothing but
the standard library and itself, so it installs with no dependencies.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "parres"

NO_SRC_CALLER = {
    "oracle.homology_dim_at":
        "oracle entry point of the tests and the benchmark",
    "oracle.module_length_upto":
        "oracle entry point of the tests and the benchmark",
    "resolutions.general_cone_resolution":
        "the cone resolution of R/(x) that acceptance criteria 2 and 10 check",
    "complexes.minimize_with_tracking":
        "minimizes a given complex, such as the cones of acceptance criteria "
        "2 and 10, which the benchmark tracer wraps; resolutions cancel "
        "units as their steps arrive",
    "resolutions.cec_injectivity_check":
        "the comparison-map injectivity of acceptance criterion 8",
    "invariants.maximal_ideal_sequence":
        "the maximal-ideal sequence whose grade the benchmark's oracle "
        "workload and the tests check the depth against; src takes the "
        "depth from a sop",
    "invariants.length_stability_check":
        "the length stability of acceptance criteria 6 and 7",
    "StabilityReport.all_stable":
        "the stability verdict of acceptance criterion 6",
    "StabilityReport.monotone":
        "the monotone lengths of acceptance criterion 7",
    "ModuleResolution.poincare":
        "the series of a full resolution, which the benchmark's residue-field "
        "op and the tests read; src reads series off betti_table",
    "RingMatrix.from_columns":
        "the one way from Polynomial entries into a matrix, which the "
        "benchmark's residue-field op and the tests use; a sequence packs "
        "its own elements",
    "QuotientRingSpec.reduce":
        "the Polynomial normal form the tests compare against; src reduces "
        "packed vectors",
    "PackContext.unpack": "the round-trip reference for pack",
    "PolynomialRingSpec.gen":
        "a variable as a Polynomial, for the benchmark's residue-field op "
        "and the tests; src makes a variable's packed key itself",
    "PolynomialRingSpec.parse":
        "the Polynomial read of infix text, for the tests; src parses "
        "straight to packed vectors with parse_packed",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _public_definitions(trees):
    """(qualified name, bare name) of each public top-level function and
    class, qualified by module, and each public method, qualified by class."""
    out = []
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, defs) or node.name.startswith("_"):
                continue
            out.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                out += [(f"{node.name}.{item.name}", item.name)
                        for item in node.body
                        if isinstance(item, defs[:2])
                        and not item.name.startswith("_")]
    return out


def _name_counts(tree):
    """How often each name is read, as a name or an attribute, in tree."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
    return used


def _used_names(trees):
    return sum(map(_name_counts, trees.values()), Counter())


def test_every_public_definition_has_a_src_caller():
    trees = _trees()
    used = _used_names(trees)
    uncalled = {qual for qual, name in _public_definitions(trees)
                if name not in used}
    assert sorted(uncalled - set(NO_SRC_CALLER)) == []


def _private_definitions(trees):
    """(qualified name, node) of each private top-level function, qualified
    by module, and each private method of a top-level class, qualified by
    class; dunders are not private."""
    out = []
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, funcs) and private(node.name):
                out.append((f"{module}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                out += [(f"{node.name}.{item.name}", item)
                        for item in node.body
                        if isinstance(item, funcs) and private(item.name)]
    return out


def test_every_private_definition_has_a_src_caller():
    # a use inside the definition itself, such as a recursive call, is no
    # caller
    trees = _trees()
    used = _used_names(trees)
    uncalled = [qual for qual, node in _private_definitions(trees)
                if used[node.name] == _name_counts(node)[node.name]]
    assert uncalled == []


def test_every_exception_is_defined_and_uncalled():
    trees = _trees()
    used = _used_names(trees)
    defined = dict(_public_definitions(trees))
    assert sorted(set(NO_SRC_CALLER) - set(defined)) == []
    assert sorted(q for q in NO_SRC_CALLER if defined[q] in used) == []


# Each name that a public method or property shares with another class's
# method, property or public instance attribute, or with a module function:
# every definition of it, with its src caller or the reason it has none.
SHARED_NAMES = {
    "cap": {
        "BettiTable.cap": "BettiTable.totals, pretty and __eq__",
        "ModuleResolution.cap": "ModuleResolution.betti",
        "RingSpecFile.cap": "cli.run",
    },
    "characteristic": {
        "PolynomialRingSpec.characteristic":
            "Polynomial.__init__ and __str__, the parser and "
            "QuotientRingSpec.characteristic",
        "QuotientRingSpec.characteristic":
            "QuotientRingSpec.products, complexes.cancel_units and "
            "oracle.matrix_slice",
    },
    "complex": {
        "ModuleResolution.complex":
            "complexes.kill_top_homology and "
            "resolutions.lift_koszul_to_resolution",
        "ParameterSequence.complex":
            "harness.koszul_experiment, koszul.comparison_map and "
            "resolutions.general_cone_resolution",
    },
    "entries": {
        "BettiTable.entries": "BettiTable.total, to_dict and pretty",
        "RingMatrix.entries":
            "no src caller: the tests' Polynomial view of a matrix",
    },
    "entry": {
        "PyReducer.entry": "_engine.buchberger and _engine.interreduce",
        "RingMatrix.entry": "ParameterSequence.elements",
    },
    "graded_length": {
        "FinitelyPresentedModule.graded_length":
            "no src caller: the benchmark's oracle workload and the tests "
            "compare it with the oracle; src counts through the sequences",
        "ParameterSequence.graded_length":
            "harness.koszul_experiment and ParameterSequence.length",
    },
    "hilbert_numerator": {
        "groebner.hilbert_numerator":
            "QuotientRingSpec.hilbert_numerator and "
            "FinitelyPresentedModule.hilbert_numerator",
        "QuotientRingSpec.hilbert_numerator":
            "QuotientRingSpec.dimension and ParameterSequence._free",
        "FinitelyPresentedModule.hilbert_numerator":
            "FinitelyPresentedModule._graded_counts and "
            "ParameterSequence._cokernel",
    },
    "is_zero": {
        "Polynomial.is_zero": "RingMatrix.from_columns",
        "RingMatrix.is_zero":
            "complexes._check_square_zero and complexes.lift_chain_map",
    },
    "length": {
        "FinitelyPresentedModule.length":
            "ParameterSequence.is_sop and InducedHomologyMap.kernel_length",
        "ParameterSequence.length":
            "invariants.flc_check and harness.koszul_experiment",
    },
    "nvars": {
        "PolynomialRingSpec.nvars":
            "QuotientRingSpec.nvars and PolynomialRingSpec.gen",
        "QuotientRingSpec.nvars":
            "QuotientRingSpec.dimension and FinitelyPresentedModule.length",
    },
    "to_dict": {
        "BettiTable.to_dict": "harness.resolve_experiment",
        "InvariantReport.to_dict": "harness.invariants_experiment",
    },
    "variables": {
        "PolynomialRingSpec.variables":
            "PolynomialRingSpec.nvars and Polynomial.__str__",
        "QuotientRingSpec.variables":
            "no src caller: the benchmark's residue-field op and the tests "
            "read a ring's variables",
    },
}


def _definitions_by_name(trees):
    """bare name -> {qualified name: is a method or property} for each
    public module function and each public method, property and instance
    attribute of a top-level class."""
    out = {}
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, funcs) and not node.name.startswith("_"):
                out.setdefault(node.name, {})[f"{module}.{node.name}"] = False
            if not isinstance(node, ast.ClassDef):
                continue
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                        and not sub.attr.startswith("_")):
                    out.setdefault(sub.attr, {})[
                        f"{node.name}.{sub.attr}"] = False
            for item in node.body:
                if isinstance(item, funcs) and not item.name.startswith("_"):
                    out.setdefault(item.name, {})[
                        f"{node.name}.{item.name}"] = True
    return out


def test_every_shared_method_name_is_listed_with_each_definition():
    shared = {name: sorted(defs)
              for name, defs in _definitions_by_name(_trees()).items()
              if len(defs) > 1 and any(defs.values())}
    assert shared == {name: sorted(defs)
                      for name, defs in SHARED_NAMES.items()}


# Every (qualified function, parameter) pair with a default, nested
# definitions included.  A new optional parameter is a new knob: add it here
# with the reason it needs a default, or make it required.
OPTIONAL_PARAMETERS = {
    ("algebra.PolyParseError.__init__", "line"),
    ("algebra.PolyParseError.__init__", "column"),
    ("algebra.PolynomialRingSpec.parse", "line"),
    ("cli.main", "argv"),
    ("groebner.RingMatrix.from_columns", "col_degrees"),
    ("groebner.FinitelyPresentedModule.__init__", "relations"),
    ("harness.RingSpecFile.sop", "name"),
    ("harness.parse_ring_spec", "name"),
    ("invariants.invariant_report", "nmax"),
    ("koszul.ParameterSequence.__init__", "name"),
}


def _optional_parameters(trees):
    """(qualified name, parameter) of each parameter with a default, in
    every function and method, qualified by module and enclosing names."""
    out = set()

    def visit(node, prefix):
        for item in ast.iter_child_nodes(node):
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = item.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):]
                named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
                out.update((prefix + item.name, a.arg) for a in named)
                visit(item, f"{prefix}{item.name}.")
            elif isinstance(item, ast.ClassDef):
                visit(item, f"{prefix}{item.name}.")

    for module, tree in trees.items():
        visit(tree, f"{module}.")
    return out


def test_optional_parameters_are_the_listed_ones():
    found = _optional_parameters(_trees())
    assert sorted(found - OPTIONAL_PARAMETERS) == []
    assert sorted(OPTIONAL_PARAMETERS - found) == []


def test_the_package_imports_only_the_standard_library():
    found = set()
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update((module, a.name.split(".")[0])
                             for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add((module, node.module.split(".")[0]))
    allowed = sys.stdlib_module_names | {"parres"}
    assert sorted(f for f in found if f[1] not in allowed) == []
