"""Code with no callers is deleted.

Every public top-level function and class of `src/parres` and every public
method of its top-level classes must be used, as a name or an attribute,
somewhere in `src/`.  The exceptions are listed below, each with its reason;
an exception fails too once its name is gone or has gained a caller in
`src/`.  The scan is by name, so a method counts as used when any attribute
of that name is read.

The optional parameters are a listed set too, so that a new knob comes with
an edit to the list and its reason.  And the package imports nothing but
the standard library and itself, so it installs with no dependencies.
"""

import ast
import sys
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
    "MonomialOrder.compare":
        "the reference the packed key order is tested against",
    "Polynomial.monic": "normalizes Groebner bases compared in the tests",
    "PolynomialRingSpec.monomial": "builds test polynomials term by term",
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


def _used_names(trees):
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_definition_has_a_src_caller():
    trees = _trees()
    used = _used_names(trees)
    uncalled = {qual for qual, name in _public_definitions(trees)
                if name not in used}
    assert sorted(uncalled - set(NO_SRC_CALLER)) == []


def test_every_exception_is_defined_and_uncalled():
    trees = _trees()
    used = _used_names(trees)
    defined = dict(_public_definitions(trees))
    assert sorted(set(NO_SRC_CALLER) - set(defined)) == []
    assert sorted(q for q in NO_SRC_CALLER if defined[q] in used) == []


# Every (qualified function, parameter) pair with a default, nested
# definitions included.  A new optional parameter is a new knob: add it here
# with the reason it needs a default, or make it required.
OPTIONAL_PARAMETERS = {
    ("_engine.PackContext.__init__", "kind"),
    ("_engine.PyReducer.normal_form", "stopkey"),
    ("algebra.PolyParseError.__init__", "line"),
    ("algebra.PolyParseError.__init__", "column"),
    ("algebra.PolynomialRingSpec.__init__", "order"),
    ("algebra.PolynomialRingSpec.monomial", "coeff"),
    ("algebra.PolynomialRingSpec.parse", "line"),
    ("algebra.parse_polynomial", "line"),
    ("cli.main", "argv"),
    ("complexes.ChainComplex.__init__", "check"),
    ("groebner.RingMatrix.from_columns", "col_degrees"),
    ("groebner.FinitelyPresentedModule.__init__", "relations"),
    ("harness.RingSpecFile.__init__", "name"),
    ("harness.RingSpecFile.sop", "name"),
    ("harness.parse_ring_spec", "name"),
    ("invariants.depth", "x"),
    ("invariants.cohen_macaulay_defect", "x"),
    ("invariants.length_stability_check", "nmax"),
    ("invariants.length_stability_check", "check_maps"),
    ("invariants.InvariantReport.__init__", "sop_name"),
    ("invariants.invariant_report", "x"),
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
