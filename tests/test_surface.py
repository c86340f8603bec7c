"""The public surface of `utcat` is the library that its callers use.

Every public name of a `utcat` module, each name it exports in `__all__`
and each function or method it defines whose name does not start with `_`,
must be used by code in `src`, `scripts` or `perfbench` outside its own
definition, or be listed in `TEST_ONLY` with the reason it stays.  A use is
a name or an attribute that is read; imports, `__all__` strings, type
annotations and the body of the definition itself do not count, so a
re-export in `utcat/__init__.py` or a wrapper nobody calls fails here.

Two blind spots: a private name (a leading `_`) is never checked, so a
private method that only tests read passes (as `SkeletalUTC._finv` did);
and a use is matched by name alone, so a method that only tests call passes
while any library attribute of the same name is read (the `alg.basis` array
of `semicircular` masked the test-only `CoendAlgebra.basis()`).
"""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "utcat"

# public names that only the tests reach, each with the reason it stays
TEST_ONLY = {
    # its last library caller was the descended expectation E_ω, deleted
    # with no report that printed it
    "canonical_expectation": "the paper's canonical expectation "
                             "𝔼(T) = ⟨TΩ, Ω⟩",
    # the library gathers F, R and θ from their buffers in bulk or by
    # block number
    "fmat": "the F-matrix of one block",
    "rmat": "the R-matrix of one channel",
    "twist": "the ribbon twist θ_x of one label",
}


def _exports(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _public(tree: ast.Module) -> list:
    """The exports of a module, then the names of the functions and methods
    it defines, nested ones included, that do not start with `_`."""
    defs = sorted({node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and not node.name.startswith("_")})
    exports = _exports(tree)
    return exports + [n for n in defs if n not in exports]


def _annotations(tree: ast.AST) -> set:
    """ids of the nodes inside type annotations."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            roots += [a.annotation for a in (args.posonlyargs + args.args
                                             + args.kwonlyargs
                                             + [args.vararg, args.kwarg])
                      if a is not None and a.annotation is not None]
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(n) for r in roots if r is not None for n in ast.walk(r)}


def _uses(tree: ast.AST) -> dict:
    """name -> number of reads outside annotations and outside the body of
    any definition of that name."""
    skip = _annotations(tree)
    counts = {}

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inside = inside | {node.name}
        elif id(node) not in skip:
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else None)
            if name is not None and name not in inside:
                counts[name] = counts.get(name, 0) + 1
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return counts


@cache
def _library_uses() -> dict:
    total = {}
    for sub in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / sub).rglob("*.py")):
            for name, n in _uses(ast.parse(path.read_text())).items():
                total[name] = total.get(name, 0) + n
    return total


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_every_export_is_used_by_the_library(module):
    uses = _library_uses()
    public = _public(ast.parse((PACKAGE / f"{module}.py").read_text()))
    unused = [n for n in public if n not in uses and n not in TEST_ONLY]
    assert not unused, f"{module} public names only tests reach: {unused}"


def test_test_only_names_are_exported_and_unused():
    # an entry that the library starts to use, or that is gone, is stale
    uses = _library_uses()
    public = {n for m in MODULES for n in _public(
        ast.parse((PACKAGE / f"{m}.py").read_text()))}
    assert set(TEST_ONLY) <= public
    assert not [n for n in TEST_ONLY if n in uses]


def test_a_wrapper_nobody_calls_is_caught():
    tree = ast.parse(
        "class Thing:\n"
        "    def again(self) -> 'Thing':\n"
        "        return Thing()\n"
        "def wrap(x: Thing) -> Thing:\n"
        "    return wrap(x)\n"
        "def make():\n"
        "    return Thing()\n"
        "def _hidden():\n"
        "    return make()\n")
    uses = _uses(tree)
    # methods and functions are public names; a leading `_` is not
    assert _public(tree) == ["again", "make", "wrap"]
    # recursion and annotations are not uses; a call from another
    # definition is
    assert "wrap" not in uses
    assert uses["Thing"] == 1
