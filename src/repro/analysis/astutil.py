"""Shared AST helpers: set-typed expression inference, call naming.

The determinism rules need to decide, without a type checker, whether an
expression is *hash-ordered* (a ``set``/``frozenset``).  The inference
here is deliberately shallow and syntactic -- literals, constructor
calls, set operators, set-returning methods, annotated locals, a short
list of attributes known to be sets in this codebase, and
single-function local propagation -- which keeps it predictable: every
flag points at a concrete set expression, and anything the inference
cannot see simply is not flagged.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

#: Attributes that are ``set``/``frozenset`` valued throughout this
#: codebase (schema types, change-sets, interned content).  Adding a name
#: here extends determinism patrol to every consumer of that attribute.
KNOWN_SET_ATTRIBUTES = frozenset(
    {
        "instance_ids",
        "labels",
        "source_tokens",
        "target_tokens",
        "stub_node_ids",
        "property_keys",
    }
)

#: ``set``-returning methods (receiver must itself look set-ish).
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

#: Order-insensitive consumers: wrapping a set in one of these is the
#: sanctioned way to consume it (``sorted`` fixes the order; the rest
#: never observe it).
ORDER_INSENSITIVE_CALLS = frozenset(
    {"sorted", "set", "frozenset", "sum", "min", "max", "len", "any", "all"}
)


def walk_local(function: ast.AST) -> Iterable[ast.AST]:
    """Walk a function's own body without descending into nested scopes.

    Rules visit every function via :meth:`ModuleContext.functions`, which
    yields nested defs separately -- descending into them here would
    double-report every finding and mix up per-scope local inference.
    """
    stack: list[ast.AST] = [function]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.append(child)


def call_name(node: ast.Call) -> str | None:
    """The bare called name: ``foo(...)`` -> ``foo``, ``a.b(...)`` -> ``b``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` as a string, or None for non-trivial expressions."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _annotation_is_set(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    return isinstance(target, ast.Name) and target.id in {"set", "frozenset"}


def local_set_names(function: ast.AST) -> frozenset[str]:
    """Names that are set-typed on *every* assignment inside ``function``.

    Single-function, flow-insensitive: a name counts only when each of
    its assignments is itself a set-ish expression (or a set-annotated
    declaration) -- one non-set assignment disqualifies it, so renames
    and reuse never produce phantom sets.
    """
    setish: set[str] = set()
    nonset: set[str] = set()

    if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
        arguments = function.args
        for argument in (
            *arguments.posonlyargs,
            *arguments.args,
            *arguments.kwonlyargs,
        ):
            if _annotation_is_set(argument.annotation):
                setish.add(argument.arg)

    def classify(name: str, value: ast.expr | None, annotation=None) -> None:
        if _annotation_is_set(annotation) or (
            value is not None and is_setish(value, frozenset(setish))
        ):
            setish.add(name)
        else:
            nonset.add(name)

    for node in walk_local(function):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                classify(target.id, node.value)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            classify(node.target.id, node.value, node.annotation)
    return frozenset(setish - nonset)


def is_setish(node: ast.expr, locals_: frozenset[str] = frozenset()) -> bool:
    """True when ``node`` syntactically denotes a set/frozenset value."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_METHODS
            and is_setish(func.value, locals_)
        ):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return is_setish(node.left, locals_) or is_setish(node.right, locals_)
    if isinstance(node, ast.Name):
        return node.id in locals_
    if isinstance(node, ast.Attribute):
        return node.attr in KNOWN_SET_ATTRIBUTES
    if isinstance(node, ast.IfExp):
        return is_setish(node.body, locals_) and is_setish(node.orelse, locals_)
    return False


def describe(node: ast.expr) -> str:
    """Short source-ish description of an expression for messages."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return node.__class__.__name__
    return text if len(text) <= 60 else text[:57] + "..."
