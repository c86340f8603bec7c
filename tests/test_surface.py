"""The public surface of `utcat` is the library that its callers use.

Every public name of a `utcat` module, each name it exports in `__all__`
and each function or method it defines whose name does not start with `_`,
must be used by code in `src`, `scripts` or `perfbench` outside its own
definition, or be listed in `TEST_ONLY` with the reason it stays.  A use is
a name or an attribute that is read; imports, `__all__` strings, type
annotations and the body of the definition itself do not count, so a
re-export in `utcat/__init__.py` or a wrapper nobody calls fails here.  A
name defined only in class bodies, a method, is used only through an
attribute read (`x.name`): a local variable of the same name does not count
(the locals `ket` and `bra` of `vacuum_expectation` once masked the
test-only `SemicircularFamily.ket` and `bra`).  A module function counts
both kinds of read, since a module is read as `io.cat_from_json`.

Two blind spots: a private name (a leading `_`) is never checked, so a
private method that only tests read passes (as `SkeletalUTC._finv` did);
and an attribute read is matched by name alone, so a method that only tests
call passes while any library attribute of the same name is read (the
`alg.basis` array of `semicircular` masked the test-only
`CoendAlgebra.basis()`).
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
}


def _exports(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public(tree: ast.Module) -> list:
    """The exports of a module, then the names of the functions and methods
    it defines, nested ones included, that do not start with `_`."""
    defs = sorted({node.name for node in ast.walk(tree)
                   if isinstance(node, _DEFS) and not node.name.startswith("_")})
    exports = _exports(tree)
    return exports + [n for n in defs if n not in exports]


def _methods(tree: ast.Module) -> set:
    """The names that the module defines only in class bodies."""
    defs = [node for node in ast.walk(tree) if isinstance(node, _DEFS)]
    in_class = {id(d) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                for d in node.body if isinstance(d, _DEFS)}
    return ({d.name for d in defs if id(d) in in_class}
            - {d.name for d in defs if id(d) not in in_class})


def _annotations(tree: ast.AST) -> set:
    """ids of the nodes inside type annotations."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, _DEFS):
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
    """(name, kind) -> number of reads outside annotations and outside the
    body of any definition of that name; the kind is `ast.Name` for a bare
    name and `ast.Attribute` for an attribute (`x.name`).  A store or a
    `del` is not a read."""
    skip = _annotations(tree)
    counts = {}

    def visit(node, inside):
        if isinstance(node, (*_DEFS, ast.ClassDef)):
            inside = inside | {node.name}
        elif id(node) not in skip:
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else None)
            if (name is not None and name not in inside
                    and isinstance(node.ctx, ast.Load)):
                key = (name, type(node))
                counts[key] = counts.get(key, 0) + 1
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return counts


def _unused(tree: ast.Module, uses: dict) -> list:
    """The public names of a module that ``uses`` never reads: a method
    only through an attribute, any other name through either kind."""
    methods = _methods(tree)
    return [n for n in _public(tree)
            if (n, ast.Attribute) not in uses
            and (n in methods or (n, ast.Name) not in uses)]


@cache
def _library_uses() -> dict:
    total = {}
    for sub in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / sub).rglob("*.py")):
            for key, n in _uses(ast.parse(path.read_text())).items():
                total[key] = total.get(key, 0) + n
    return total


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_every_export_is_used_by_the_library(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    unused = [n for n in _unused(tree, _library_uses()) if n not in TEST_ONLY]
    assert not unused, f"{module} public names only tests reach: {unused}"


def test_test_only_names_are_exported_and_unused():
    # an entry that the library starts to use, or that is gone, is stale
    trees = [ast.parse((PACKAGE / f"{m}.py").read_text()) for m in MODULES]
    assert set(TEST_ONLY) <= {n for tree in trees for n in _public(tree)}
    unused = {n for tree in trees for n in _unused(tree, _library_uses())}
    assert set(TEST_ONLY) <= unused


def test_a_wrapper_nobody_calls_is_caught():
    tree = ast.parse(
        "class Thing:\n"
        "    def again(self) -> 'Thing':\n"
        "        return Thing()\n"
        "    def masked(self):\n"
        "        return 1\n"
        "def wrap(x: Thing) -> Thing:\n"
        "    return wrap(x)\n"
        "def make():\n"
        "    return Thing()\n"
        "def _hidden():\n"
        "    masked = make()\n"
        "    return masked.again\n")
    uses = _uses(tree)
    # methods and functions are public names; a leading `_` is not
    assert _public(tree) == ["again", "make", "masked", "wrap"]
    # recursion and annotations are not uses; a call from another
    # definition is
    assert ("wrap", ast.Name) not in uses
    assert uses[("Thing", ast.Name)] == 1
    # a method is used only through an attribute: the local `masked` is a
    # bare name (its store is not a read), and `masked.again` reads `again`
    assert uses[("masked", ast.Name)] == 1
    assert _unused(tree, uses) == ["masked", "wrap"]
