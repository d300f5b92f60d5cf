"""Checks on the library's source.

Depth limits are explicit caps, never the recursion limit, and every class
has one body: no module patches a class it defines after the definition.
"""

import ast
from pathlib import Path

import flexcurve

SOURCE = Path(flexcurve.__file__).resolve().parent


def self_calls(text):
    """Names of the functions in ``text`` that call themselves, by name or as self./cls. methods."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name) and func.id == node.name:
                found.append(node.name)
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == node.name
                and isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
            ):
                found.append(node.name)
    return found


def test_no_function_in_the_library_calls_itself():
    modules = sorted(SOURCE.glob("*.py"))
    assert len(modules) >= 8
    recursive = {path.name: self_calls(path.read_text()) for path in modules}
    assert {name: calls for name, calls in recursive.items() if calls} == {}


def test_a_planted_self_call_is_caught():
    planted = '''
def resolve(specs):
    def visit(pid):
        return [visit(ref) for ref in specs[pid]]
    return visit("root")


class Node:
    def depth(self):
        return 1 + max((child.depth() for child in self.children), default=0)

    def size(self):
        return 1 + sum(self.size() for _ in self.children)
'''
    assert self_calls(planted) == ["visit", "size"]


def class_patches(text):
    """``Class.attribute`` targets that a module assigns at module level, for classes it defines."""
    tree = ast.parse(text)
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            continue
        for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
            for part in ast.walk(target):
                if isinstance(part, ast.Attribute) and isinstance(part.value, ast.Name) and part.value.id in classes:
                    found.append(f"{part.value.id}.{part.attr}")
    return found


def test_no_module_patches_a_class_it_defines():
    patches = {path.name: class_patches(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    assert {name: found for name, found in patches.items() if found} == {}


def test_a_planted_class_patch_is_caught():
    planted = '''
from functools import cached_property


class Tree:
    root: str


class Other:
    pass


Tree.nodes = cached_property(lambda tree: tree._objects())
Tree.nodes.__set_name__(Tree, "nodes")
Other.count += 1
Tree.sizes[0], limit = 3, 4
unrelated.attribute = 1
'''
    assert class_patches(planted) == ["Tree.nodes", "Other.count", "Tree.sizes"]
