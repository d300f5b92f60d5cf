"""Checks on the library's source: depth limits are explicit caps, never the recursion limit."""

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
