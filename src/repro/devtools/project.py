"""Whole-program analysis substrate for the reprolint project pass.

The per-file rules (RPL001–RPL009) see one ``ast.Module`` at a time and
structurally cannot check cross-file invariants: a seed threaded from
``run_scenario`` into the fleet engine, a perf counter written in
``crypto.mac`` and read in ``perf.bench``. This module builds the
shared index those checks need:

- a **module table** keyed by dotted name (``repro.sim.scenario``),
  each entry carrying the parsed :class:`~repro.devtools.lint.LintContext`,
  its import alias maps (``import x as y`` / ``from m import f``,
  relative imports resolved against the package), and its top-level
  functions and class methods as :class:`FunctionInfo` records;
- **cross-module call resolution** (:meth:`ProjectIndex.resolve_call`):
  a ``Name`` or dotted ``Attribute`` callee is resolved through the
  alias maps to the :class:`FunctionInfo` it names, including
  ``self.method`` within the defining class.

Project rules subclass :class:`ProjectRule` and run once over the whole
index rather than once per file; their violations flow through the same
per-file suppression machinery (``# reprolint: disable=...``) and land
in the same :class:`~repro.devtools.lint.LintReport` as the per-file
rules. :func:`check_project_sources` is the in-memory seam the fixture
tests drive, mirroring :func:`~repro.devtools.lint.check_source`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.devtools.lint import LintContext, Violation, build_context

__all__ = [
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "ProjectRule",
    "build_index",
    "check_project_sources",
    "context_for_source",
    "module_name_for",
]

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def module_name_for(logical_path: str) -> str:
    """Dotted module name for a logical path.

    ``repro/sim/scenario.py -> repro.sim.scenario``;
    ``repro/sim/__init__.py -> repro.sim``;
    ``benchmarks/bench_kernels.py -> benchmarks.bench_kernels``.
    """
    path = logical_path
    if path.endswith(".py"):
        path = path[:-3]
    if path.endswith("/__init__"):
        path = path[: -len("/__init__")]
    return path.replace("/", ".")


@dataclass(frozen=True)
class FunctionInfo:
    """One top-level function or class method in the index."""

    module: str  #: dotted module name
    name: str  #: ``func`` or ``Class.method``
    node: _FunctionNode
    params: Tuple[str, ...]  #: declared parameter names, in order
    required: FrozenSet[str]  #: parameters without defaults
    optional: FrozenSet[str]  #: parameters with defaults

    @property
    def is_method(self) -> bool:
        return "." in self.name


@dataclass
class ModuleInfo:
    """Everything the project pass knows about one module."""

    name: str  #: dotted module name
    ctx: LintContext
    #: local name -> dotted module it refers to (``import x.y as z``;
    #: ``from x import y`` when ``x.y`` is itself an indexed module).
    module_aliases: Dict[str, str] = field(default_factory=dict)
    #: local name -> (dotted module, member) for ``from m import f``.
    member_aliases: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: ``func`` / ``Class.method`` -> FunctionInfo.
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)


def _function_info(
    module: str, name: str, node: _FunctionNode, *, method: bool
) -> FunctionInfo:
    args = node.args
    names: List[str] = [a.arg for a in args.posonlyargs + args.args]
    if method and names:
        names = names[1:]  # drop self/cls — never a data parameter
    positional = list(names)
    defaults = len(args.defaults)
    required = set(positional[: len(positional) - defaults])
    optional = set(positional[len(positional) - defaults :])
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        names.append(arg.arg)
        (optional if default is not None else required).add(arg.arg)
    return FunctionInfo(
        module=module,
        name=name,
        node=node,
        params=tuple(names),
        required=frozenset(required),
        optional=frozenset(optional),
    )


def _collect_functions(module: ModuleInfo) -> None:
    for node in module.ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.functions[node.name] = _function_info(
                module.name, node.name, node, method=False
            )
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    key = f"{node.name}.{item.name}"
                    module.functions[key] = _function_info(
                        module.name, key, item, method=True
                    )


def _package_of(module_name: str, logical_path: str) -> str:
    """The package a module's relative imports resolve against."""
    if logical_path.endswith("/__init__.py"):
        return module_name
    head, _, _ = module_name.rpartition(".")
    return head


def _collect_aliases(module: ModuleInfo, known_modules: Iterable[str]) -> None:
    known = set(known_modules)
    package = _package_of(module.name, module.ctx.logical_path)
    for node in ast.walk(module.ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    module.module_aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    module.module_aliases.setdefault(root, root)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                # Relative import: walk ``level - 1`` packages up.
                parts = package.split(".") if package else []
                if node.level - 1 > 0:
                    parts = parts[: -(node.level - 1)] if node.level - 1 <= len(parts) else []
                if node.module:
                    parts.append(node.module)
                base = ".".join(parts)
            if not base:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                dotted = f"{base}.{alias.name}"
                if dotted in known:
                    module.module_aliases[local] = dotted
                else:
                    module.member_aliases[local] = (base, alias.name)


def dotted_chain(node: ast.expr) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; ``None`` for non-Name roots."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


class ProjectIndex:
    """The cross-file view the project rules run against."""

    def __init__(self) -> None:
        #: dotted name -> module record.
        self.modules: Dict[str, ModuleInfo] = {}

    def add(self, ctx: LintContext) -> ModuleInfo:
        module = ModuleInfo(name=module_name_for(ctx.logical_path), ctx=ctx)
        _collect_functions(module)
        self.modules[module.name] = module
        return module

    def finalize(self) -> None:
        """Resolve import aliases once every module is registered."""
        known = tuple(self.modules)
        for module in self.modules.values():
            _collect_aliases(module, known)

    def iter_modules(self, *prefixes: str) -> Iterator[ModuleInfo]:
        """Modules whose logical path sits under any of ``prefixes``."""
        for name in sorted(self.modules):
            module = self.modules[name]
            if not prefixes or module.ctx.in_dir(*prefixes):
                yield module

    def resolve_call(
        self,
        module: ModuleInfo,
        func: ast.expr,
        *,
        enclosing_class: Optional[str] = None,
    ) -> Optional[FunctionInfo]:
        """The :class:`FunctionInfo` a call expression names, if indexed.

        Handles locally defined functions, ``from m import f`` members,
        dotted module access through ``import`` aliases, and
        ``self.method`` within ``enclosing_class``. Class constructors
        and attribute calls on arbitrary objects resolve to ``None`` —
        the rules treat unresolved calls as out of reach, never guess.
        """
        if isinstance(func, ast.Name):
            local = module.functions.get(func.id)
            if local is not None:
                return local
            member = module.member_aliases.get(func.id)
            if member is not None:
                target = self.modules.get(member[0])
                if target is not None:
                    return target.functions.get(member[1])
            return None
        chain = dotted_chain(func)
        if chain is None or len(chain) < 2:
            return None
        if chain[0] == "self" and enclosing_class is not None and len(chain) == 2:
            return module.functions.get(f"{enclosing_class}.{chain[1]}")
        root = module.module_aliases.get(chain[0])
        if root is None:
            member = module.member_aliases.get(chain[0])
            if member is not None and len(chain) == 2:
                target = self.modules.get(f"{member[0]}.{member[1]}")
                if target is not None:
                    return target.functions.get(chain[1])
            return None
        parts = root.split(".") + chain[1:]
        for split in range(len(parts) - 1, 0, -1):
            target = self.modules.get(".".join(parts[:split]))
            if target is None:
                continue
            remainder = parts[split:]
            if len(remainder) == 1:
                return target.functions.get(remainder[0])
            if len(remainder) == 2:
                return target.functions.get(f"{remainder[0]}.{remainder[1]}")
            return None
        return None


class ProjectRule:
    """One cross-file invariant: a code, a slug, and an index check."""

    code: str = "RPL998"
    name: str = "abstract-project-rule"
    description: str = ""
    #: logical-path prefixes whose modules the rule examines.
    SCOPE: Tuple[str, ...] = ("repro/",)

    def check_project(self, index: ProjectIndex) -> Iterator[Violation]:
        """Yield every violation of this rule across ``index``."""
        raise NotImplementedError

    def violation(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            rule=self.code,
            path=module.ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )

    def scoped(self, index: ProjectIndex) -> Iterator[ModuleInfo]:
        return index.iter_modules(*self.SCOPE)


def build_index(contexts: Sequence[LintContext]) -> ProjectIndex:
    """Index parsed modules for the project rules."""
    index = ProjectIndex()
    for ctx in contexts:
        index.add(ctx)
    index.finalize()
    return index


def context_for_source(
    source: str, logical_path: str, *, path: Optional[str] = None
) -> Union[LintContext, Violation]:
    """Parse one source string into a :class:`LintContext`.

    Returns an ``RPL000`` :class:`Violation` instead when the source
    does not parse — the caller folds it into the report like any other
    finding. Thin alias of :func:`repro.devtools.lint.build_context`
    kept so project-pass callers read naturally.
    """
    return build_context(source, logical_path, path=path)


def project_violations(
    contexts: Sequence[LintContext],
    *,
    rules: Optional[Sequence[ProjectRule]] = None,
    select: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Run the project rules over parsed modules.

    Suppressions work exactly as for per-file rules: a violation is
    dropped when the flagged line (or the whole file) carries a
    ``# reprolint: disable=`` directive for the rule in the module the
    violation points at.
    """
    from repro.devtools.project_rules import PROJECT_RULES

    active: Sequence[ProjectRule]
    if rules is not None:
        active = tuple(rules)
    else:
        active = tuple(rule_cls() for rule_cls in PROJECT_RULES)
    if select is not None:
        wanted = set(select)
        unknown = wanted - {rule.code for rule in active}
        if unknown:
            raise ValueError(f"unknown project rule codes: {sorted(unknown)}")
        active = tuple(rule for rule in active if rule.code in wanted)
    index = build_index(contexts)
    by_path: Dict[str, LintContext] = {ctx.path: ctx for ctx in contexts}
    violations: List[Violation] = []
    for rule in active:
        for violation in rule.check_project(index):
            ctx = by_path.get(violation.path)
            if ctx is not None and ctx.is_suppressed(
                violation.line, violation.rule
            ):
                continue
            violations.append(violation)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


def check_project_sources(
    sources: Dict[str, str],
    *,
    rules: Optional[Sequence[ProjectRule]] = None,
    select: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Run the project pass over in-memory sources.

    ``sources`` maps logical paths (``repro/sim/foo.py``) to source
    text — the seam the fixture tests drive, mirroring
    :func:`~repro.devtools.lint.check_source` for per-file rules.
    """
    contexts: List[LintContext] = []
    violations: List[Violation] = []
    for logical_path, source in sorted(sources.items()):
        built = context_for_source(source, logical_path)
        if isinstance(built, Violation):
            violations.append(built)
        else:
            contexts.append(built)
    violations.extend(project_violations(contexts, rules=rules, select=select))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations
