"""Every self-recursive function in the package, with its depth bound.

Python stops at about 1,000 nested calls, so a recursion whose depth
grows with the input (the number of points, generators or terms) fails
on large inputs. A new recursive function fails this test until its
depth bound is reviewed and added below.
"""

import ast
from pathlib import Path

import toric_kernel

PACKAGE = Path(toric_kernel.__file__).resolve().parent

ALLOWED = {
    "cones.pulling_triangulation": "one level per dimension of the face",
    "cones._hilbert_basis_iter": "one level: the inner call is on a full-dimensional cone",
    "cli._digits": "logarithmic in the bit length: each call halves the digit count",
}


def _calls_itself(fn):
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                return True
            if (isinstance(f, ast.Attribute) and f.attr == fn.name
                    and isinstance(f.value, ast.Name)
                    and f.value.id in ("self", "cls")):
                return True
    return False


def self_recursive_functions():
    """Dotted names module.outer.inner of the functions, nested ones and
    methods included, that call themselves by name."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef) and _calls_itself(child):
                    found.add(name)
                visit(child, name)
            else:
                visit(child, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_every_recursive_function_has_a_reviewed_depth_bound():
    assert self_recursive_functions() == set(ALLOWED)


def test_semigroup_search_is_not_recursive():
    # its depth would be the number of generators
    assert not any(name.startswith("cones.semigroup_member")
                   for name in self_recursive_functions() | set(ALLOWED))


def test_scanner_sees_nested_and_method_recursion():
    tree = ast.parse("def f():\n    def rec(i):\n        rec(i + 1)\n"
                     "class A:\n    def m(self):\n        self.m()\n")
    f, A = tree.body
    assert _calls_itself(f.body[0]) and _calls_itself(A.body[0])
    assert not _calls_itself(f)
