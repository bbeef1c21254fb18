"""Lock-coverage rules for classes that own a ``threading`` lock.

The daemon shares one engine, cache, and job table across a
thread-per-connection frontend and a worker thread; the caches are hit
from every handler thread.  These rules mechanically enforce the
discipline that keeps that safe: once a class owns a lock, an attribute
guarded *somewhere* must be guarded *everywhere* (rule one), and code
reachable from a thread entry point must not mutate shared containers or
foreign objects outside a lock (rule two).
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.rules import ModuleContext, ModuleRule

__all__ = ["UnguardedAttrRule", "ThreadEntryMutationRule"]

# Methods that mutate built-in containers in place.  Queue.put/get and
# Event.set are deliberately absent: those primitives synchronise
# internally and locking around them is neither needed nor flagged.
_MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "add", "discard", "setdefault", "move_to_end", "sort",
    "reverse",
})

_CONSTRUCTOR_METHODS = frozenset({"__init__", "__post_init__", "__new__"})


def _lock_attrs(class_node: ast.ClassDef) -> frozenset[str]:
    """Names of ``self.<x>`` attributes bound to threading.Lock/RLock."""
    names: set[str] = set()
    for node in ast.walk(class_node):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        func = value.func
        ctor = None
        if isinstance(func, ast.Attribute):
            ctor = func.attr
        elif isinstance(func, ast.Name):
            ctor = func.id
        if ctor not in {"Lock", "RLock", "Condition"}:
            continue
        for target in node.targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                names.add(target.attr)
    return frozenset(names)


def _methods(class_node: ast.ClassDef) -> list[ast.FunctionDef]:
    return [node for node in class_node.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _self_attr(node: ast.AST) -> str | None:
    """Return ``a`` when ``node`` is the expression ``self.a``."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _flatten_targets(target: ast.AST):
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten_targets(element)
    elif isinstance(target, ast.Starred):
        yield from _flatten_targets(target.value)
    else:
        yield target


def _guarded(ctx: ModuleContext, node: ast.AST,
             lock_attrs: frozenset[str]) -> bool:
    """True when ``node`` sits under ``with self.<lock>`` (or any attribute
    whose name mentions "lock", covering guards on foreign objects)."""
    for ancestor in ctx.ancestors(node):
        if not isinstance(ancestor, (ast.With, ast.AsyncWith)):
            continue
        for item in ancestor.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                expr = expr.func
            if not isinstance(expr, ast.Attribute):
                continue
            if _self_attr(expr) in lock_attrs:
                return True
            if "lock" in expr.attr.lower():
                return True
    return False


def _self_mutations(method: ast.FunctionDef):
    """Yield ``(attr, node, how)`` for every mutation of ``self.<attr>``."""
    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for leaf in _flatten_targets(target):
                    attr = _self_attr(leaf)
                    if attr is not None:
                        yield attr, node, "assignment"
                    elif isinstance(leaf, ast.Subscript):
                        attr = _self_attr(leaf.value)
                        if attr is not None:
                            yield attr, node, "item assignment"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                attr = _self_attr(target)
                if attr is None and isinstance(target, ast.Subscript):
                    attr = _self_attr(target.value)
                if attr is not None:
                    yield attr, node, "deletion"
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                attr = _self_attr(func.value)
                if attr is not None:
                    yield attr, node, f".{func.attr}()"


class UnguardedAttrRule(ModuleRule):
    """Attributes guarded somewhere must be guarded everywhere."""

    rule_id = "lock-unguarded-attr"
    summary = ("in a lock-owning class, self attributes mutated under the "
               "lock must not also be mutated outside it")
    scope = None

    def check(self, ctx: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for class_node in ast.walk(ctx.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            lock_attrs = _lock_attrs(class_node)
            if not lock_attrs:
                continue
            guarded_attrs: set[str] = set()
            unguarded: list[tuple[str, ast.AST, str, str]] = []
            for method in _methods(class_node):
                if method.name in _CONSTRUCTOR_METHODS:
                    continue
                for attr, node, how in _self_mutations(method):
                    if attr in lock_attrs:
                        continue
                    if _guarded(ctx, node, lock_attrs):
                        guarded_attrs.add(attr)
                    else:
                        unguarded.append((attr, node, how, method.name))
            for attr, node, how, method_name in unguarded:
                if attr not in guarded_attrs:
                    continue
                findings.append(self.finding(
                    ctx.relpath, node.lineno,
                    f"{class_node.name}.{method_name} mutates self.{attr} "
                    f"({how}) outside the lock, but other methods guard it; "
                    "take the lock here too",
                ))
        return findings


class ThreadEntryMutationRule(ModuleRule):
    """Thread-entry code must not mutate shared state outside a lock."""

    rule_id = "lock-thread-entry"
    summary = ("methods reachable from threading.Thread targets must hold a "
               "lock when mutating shared containers or foreign objects")
    scope = None

    def check(self, ctx: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for class_node in ast.walk(ctx.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            lock_attrs = _lock_attrs(class_node)
            if not lock_attrs:
                continue
            methods = {m.name: m for m in _methods(class_node)}
            entries = self._thread_entries(class_node)
            reachable = self._reachable(methods, entries)
            for name in sorted(reachable):
                method = methods.get(name)
                if method is None or method.name in _CONSTRUCTOR_METHODS:
                    continue
                findings.extend(
                    self._check_method(ctx, class_node, method, lock_attrs)
                )
        return findings

    @staticmethod
    def _thread_entries(class_node: ast.ClassDef) -> set[str]:
        """Method names passed as ``target=self.<m>`` to a Thread(...).

        Handlers named in a class-level ``OPS`` table count too: the wire
        core calls them on its connection threads.
        """
        entries: set[str] = set()
        for node in class_node.body:
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Dict)
                    and any(isinstance(target, ast.Name) and target.id == "OPS"
                            for target in node.targets)):
                entries.update(value.id for value in node.value.values
                               if isinstance(value, ast.Name))
        for node in ast.walk(class_node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            ctor = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if ctor != "Thread":
                continue
            for keyword in node.keywords:
                if keyword.arg != "target":
                    continue
                attr = _self_attr(keyword.value)
                if attr is not None:
                    entries.add(attr)
        return entries

    @staticmethod
    def _reachable(methods: dict[str, ast.FunctionDef],
                   entries: set[str]) -> set[str]:
        """Close ``entries`` over ``self.<m>(...)`` calls within the class."""
        seen: set[str] = set()
        frontier = [name for name in entries if name in methods]
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            for node in ast.walk(methods[name]):
                if not isinstance(node, ast.Call):
                    continue
                attr = _self_attr(node.func)
                if attr is not None and attr in methods and attr not in seen:
                    frontier.append(attr)
        return seen

    def _check_method(self, ctx: ModuleContext, class_node: ast.ClassDef,
                      method: ast.FunctionDef,
                      lock_attrs: frozenset[str]) -> list[Finding]:
        params = {
            arg.arg
            for arg in (method.args.posonlyargs + method.args.args
                        + method.args.kwonlyargs)
            if arg.arg != "self"
        }
        findings: list[Finding] = []

        def flag(node: ast.AST, what: str) -> None:
            findings.append(self.finding(
                ctx.relpath, node.lineno,
                f"{class_node.name}.{method.name} runs on a worker thread "
                f"and {what} without holding a lock",
            ))

        for attr, node, how in _self_mutations(method):
            if attr in lock_attrs or _guarded(ctx, node, lock_attrs):
                continue
            if how == "assignment":
                # Plain rebinding of a self attribute is the first rule's
                # business (it needs the guarded-elsewhere signal); here we
                # police shared *containers* and foreign objects.
                continue
            flag(node, f"mutates self.{attr} ({how})")

        for node in ast.walk(method):
            findings.extend(
                self._param_mutation(ctx, node, params, lock_attrs, flag)
            )
        return findings

    @staticmethod
    def _param_mutation(ctx, node, params, lock_attrs, flag):
        """Flag writes through a parameter: shared objects handed in."""

        def param_base(expr: ast.AST) -> str | None:
            while isinstance(expr, (ast.Attribute, ast.Subscript)):
                expr = expr.value
            if isinstance(expr, ast.Name) and expr.id in params:
                return expr.id
            return None

        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for leaf in _flatten_targets(target):
                    if not isinstance(leaf, (ast.Attribute, ast.Subscript)):
                        continue
                    base = param_base(leaf)
                    if base is None or _guarded(ctx, node, lock_attrs):
                        continue
                    flag(node, f"writes through parameter {base!r}")
                    return []
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                base = param_base(func.value)
                if base is not None and not _guarded(ctx, node, lock_attrs):
                    flag(node, f"mutates a container of parameter {base!r} "
                               f"(.{func.attr}())")
        return []
