"""The reprolint project-rule pack: cross-file invariants.

These rules run over the :class:`~repro.devtools.project.ProjectIndex`
rather than one file at a time — each encodes a property that only
exists *between* modules:

========  ==============================================================
RPL010    seed-threading dataflow: a function accepting ``seed``/``rng``
          must actually use it and must thread it into callees that
          accept one — a dropped or constant-rederived seed silently
          breaks the DES ↔ fleet ↔ loopback byte-identity contracts
========  ==============================================================

Like the per-file pack, rules stay suppression-agnostic; the engine
applies ``# reprolint: disable=...`` afterwards, against the module
each violation points at.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple, Type

from repro.devtools.lint import Violation
from repro.devtools.project import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    ProjectRule,
    dotted_chain,
)
from repro.devtools.rules import _Imports

__all__ = [
    "PROJECT_RULES",
    "SeedThreadingRule",
    "project_rule_catalog",
]

#: Parameter names the seed-threading rule treats as RNG carriers.
SEED_PARAMS = frozenset({"seed", "rng"})


def _is_stub(node: ast.AST) -> bool:
    """Whether a function body is declaration-only (nothing to check).

    Covers abstract methods, protocol stubs, and interface-uniform
    trivial implementations: a body that is (after the docstring) empty
    or made only of ``pass``/``...``/``raise``/constant ``return``.
    """
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    for decorator in node.decorator_list:
        chain = dotted_chain(decorator) or []
        if chain and chain[-1] in {"abstractmethod", "overload"}:
            return True
    body = list(node.body)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Raise)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        if isinstance(stmt, ast.Return) and (
            stmt.value is None or isinstance(stmt.value, ast.Constant)
        ):
            continue
        return False
    return True


class SeedThreadingRule(ProjectRule):
    """RPL010 — seeds and RNG streams are threaded, never dropped.

    Every reproducibility harness in the repo (DES↔fleet parity, the
    loopback soak parity, the scenario contracts) assumes the seed
    ladder is airtight: the one seed in ``ScenarioConfig`` derives every
    stream, and a function that accepts a ``seed``/``rng`` passes it
    down to everything that draws. Three failure shapes are flagged:

    - **dropped**: a ``seed``/``rng`` parameter the body never reads —
      callers believe they control the randomness; they don't;
    - **not threaded**: a call into another indexed function that
      accepts ``seed``/``rng`` with no argument derived from the
      caller's own seed — the callee falls back to its default and the
      caller's seed stops mattering below that point;
    - **re-derived**: ``random.Random(<constant>)`` while a
      ``seed``/``rng`` parameter is in scope — a parallel universe of
      randomness pinned to a literal (unseeded ``Random()`` in
      deterministic layers is RPL002's, per-file, finding).

    Dataflow is first-order: names assigned from expressions that
    mention the seed (``child = rng.getrandbits(64)``) count as
    seed-derived when passed on.
    """

    code = "RPL010"
    name = "seed-threading"
    description = (
        "seed/rng parameter dropped, not threaded to a seed-accepting"
        " callee, or re-derived from a constant"
    )

    SCOPE = ("repro/",)

    def check_project(self, index: ProjectIndex) -> Iterator[Violation]:
        for module in self.scoped(index):
            imports = _Imports(module.ctx.tree, {"random"})
            for info in module.functions.values():
                yield from self._check_function(index, module, info, imports)

    def _check_function(
        self,
        index: ProjectIndex,
        module: ModuleInfo,
        info: FunctionInfo,
        imports: _Imports,
    ) -> Iterator[Violation]:
        seed_params = [p for p in info.params if p in SEED_PARAMS]
        if not seed_params or _is_stub(info.node):
            return
        used = {
            n.id for n in ast.walk(info.node) if isinstance(n, ast.Name)
        }
        for param in seed_params:
            if param not in used:
                yield self.violation(
                    module,
                    info.node,
                    f"{info.name}() accepts '{param}' but never uses it:"
                    " the seed is dropped on the floor — thread it into"
                    " the randomness this function triggers, or remove"
                    " the parameter",
                )
        live = [p for p in seed_params if p in used]
        if not live:
            return
        tainted = self._tainted_names(info.node, set(live))
        enclosing_class = (
            info.name.split(".", 1)[0] if info.is_method else None
        )
        for call in ast.walk(info.node):
            if not isinstance(call, ast.Call):
                continue
            if imports.resolve_call(call.func) == ("random", "Random"):
                if call.args and all(
                    isinstance(arg, ast.Constant) for arg in call.args
                ):
                    literal = ast.unparse(call.args[0])
                    yield self.violation(
                        module,
                        call,
                        f"random.Random({literal}) re-derives a generator"
                        f" from a constant while '{live[0]}' is in scope:"
                        " derive child streams from the incoming"
                        " seed/rng instead (e.g."
                        " Random(rng.getrandbits(64)))",
                    )
                continue
            callee = index.resolve_call(
                module, call.func, enclosing_class=enclosing_class
            )
            if callee is None or callee.node is info.node:
                continue
            accepts = (callee.required | callee.optional) & SEED_PARAMS
            if not accepts:
                continue
            if self._call_references(call, tainted):
                continue
            param = sorted(accepts)[0]
            yield self.violation(
                module,
                call,
                f"{info.name}() holds '{live[0]}' but calls"
                f" {callee.name}() (which accepts '{param}') without"
                " threading it: the callee re-derives its own"
                " randomness and the caller's seed stops mattering"
                " below this point",
            )

    @staticmethod
    def _tainted_names(node: ast.AST, seeds: Set[str]) -> Set[str]:
        """Names carrying seed-derived values (first-order, 2 passes)."""
        tainted = set(seeds)
        for _ in range(2):
            changed = False
            for stmt in ast.walk(node):
                if isinstance(stmt, ast.Assign):
                    value, targets = stmt.value, stmt.targets
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    value, targets = stmt.value, [stmt.target]
                else:
                    continue
                if not any(
                    isinstance(n, ast.Name) and n.id in tainted
                    for n in ast.walk(value)
                ):
                    continue
                for target in targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name) and n.id not in tainted:
                            tainted.add(n.id)
                            changed = True
            if not changed:
                break
        return tainted

    @staticmethod
    def _call_references(call: ast.Call, tainted: Set[str]) -> bool:
        expressions = list(call.args) + [kw.value for kw in call.keywords]
        return any(
            isinstance(n, ast.Name) and n.id in tainted
            for expr in expressions
            for n in ast.walk(expr)
        )


PROJECT_RULES: Tuple[Type[ProjectRule], ...] = (
    SeedThreadingRule,
)


def project_rule_catalog() -> List[Tuple[str, str, str]]:
    """``(code, name, description)`` rows for ``--list-rules`` and docs."""
    return [
        (rule.code, rule.name, rule.description) for rule in PROJECT_RULES
    ]
