"""Code with no callers is deleted.

Every public top-level function and class of `src/parres` and every public
method of its top-level classes must be used, as a name or an attribute,
somewhere in `src/`.  The exceptions are listed below, each with its reason;
an exception fails too once its name is gone or has gained a caller in
`src/`.  The scan is by name, so a method counts as used when any attribute
of that name is read.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "parres"

NO_SRC_CALLER = {
    "oracle.homology_dim_at":
        "oracle entry point of the tests and the benchmark",
    "oracle.module_length_upto":
        "oracle entry point of the tests and the benchmark",
    "resolutions.general_cone_resolution":
        "the cone resolution of R/(x) that acceptance criteria 2 and 10 check",
    "resolutions.cec_injectivity_check":
        "the comparison-map injectivity of acceptance criterion 8",
    "invariants.length_stability_check":
        "the length stability of acceptance criteria 6 and 7",
    "StabilityReport.all_stable":
        "the stability verdict of acceptance criterion 6",
    "StabilityReport.monotone":
        "the monotone lengths of acceptance criterion 7",
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
