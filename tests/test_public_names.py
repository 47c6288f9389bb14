import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# public names that nothing in src/, scripts/ or perfbench/ calls, kept on purpose
KEEP = {
    "load_matrix": "the reader of save_matrix's binary format",
    "heat_kernel": "the public heat-semigroup kernel the README documents",
    "G": "the difference quotient (F(x) - F(0)) / x of the profile family",
    "AuxDecomposition": "the even-n log term of the small-argument decomposition",
}


def _referenced_names() -> set:
    """Every name loaded, attribute read and whole-string constant (the
    benchmark's tracer names its targets as strings) in src/, scripts/ and
    perfbench/.  The pieces of an f-string are not whole strings."""
    names = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            tree = ast.parse(path.read_text())
            pieces = {id(v) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                      for v in node.values}
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and id(node) not in pieces):
                    names.add(node.value)
    return names


def test_every_public_definition_in_src_has_a_caller():
    # src/besselriesz holds only what a pipeline, verify, a script or the
    # benchmark runs; test oracles live in the test modules that use them
    referenced = _referenced_names()
    unused = set()
    for path in sorted((ROOT / "src" / "besselriesz").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in referenced):
                unused.add(node.name)
    # equal, not a subset: a kept name that gains a caller leaves the list
    assert unused == set(KEEP), sorted(unused ^ set(KEEP))
