"""Project-specific correctness tooling: ``reprolint`` + sanitizers.

The reproduction rests on invariants no generic linter can see: every
hash must route through :mod:`repro.crypto.kernels` so midstate caching
stays bit-identical, the simulation layers must stay deterministic so
the vectorized fleet engine can mirror the DES draw-for-draw, the
asyncio transport must never block, the process pool must only ever
receive picklable work, and content-addressed cache keys must cover
every configuration field. Two tiers enforce this:

**Tier one — static analysis.** :mod:`repro.devtools.lint` walks the
source tree and enforces per-file AST rules (RPL001..RPL006, RPL009)
with per-line suppressions, text/JSON/GitHub reporters, baselines and
CI-friendly exit codes; :mod:`repro.devtools.project` adds the
whole-program pass (import graph, symbol table, call resolution) behind
``--project``, running the cross-file rule RPL010 (seed-threading
dataflow)::

    python -m repro.devtools.lint src benchmarks --project
    repro lint --project --format github

**Tier two — runtime sanitizers.** :mod:`repro.devtools.sanitizers`
traces what static analysis cannot prove: RNG draw sequences with
call-site attribution (``repro sanitize determinism``) and
SharedMemory/socket lifetimes (``repro sanitize resources``) — all zero-cost when disabled,
guarded exactly like ``repro.perf``.

See ``docs/API.md`` ("repro.devtools — correctness tooling") for the
rule catalogue, the suppression syntax, and the sanitizer workflows.

Submodules are loaded lazily (PEP 562) so ``python -m
repro.devtools.lint`` executes ``lint`` exactly once as ``__main__``
instead of importing it a second time through the package.
"""

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.devtools import sanitizers  # noqa: F401
    from repro.devtools.lint import (  # noqa: F401
        LintReport,
        Violation,
        build_context,
        check_source,
        lint_file,
        lint_paths,
    )
    from repro.devtools.project import (  # noqa: F401
        ProjectIndex,
        ProjectRule,
        build_index,
        check_project_sources,
    )
    from repro.devtools.project_rules import (  # noqa: F401
        PROJECT_RULES,
        project_rule_catalog,
    )
    from repro.devtools.rules import (  # noqa: F401
        ALL_RULES,
        Rule,
        rule_catalog,
    )

__all__ = [
    "ALL_RULES",
    "LintReport",
    "PROJECT_RULES",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "Violation",
    "build_context",
    "build_index",
    "check_project_sources",
    "check_source",
    "lint_file",
    "lint_paths",
    "project_rule_catalog",
    "rule_catalog",
    "sanitizers",
]

_LINT_EXPORTS = frozenset(
    {
        "LintReport",
        "Violation",
        "build_context",
        "check_source",
        "lint_file",
        "lint_paths",
    }
)
_RULE_EXPORTS = frozenset({"ALL_RULES", "Rule", "rule_catalog"})
_PROJECT_EXPORTS = frozenset(
    {"ProjectIndex", "ProjectRule", "build_index", "check_project_sources"}
)
_PROJECT_RULE_EXPORTS = frozenset({"PROJECT_RULES", "project_rule_catalog"})


def __getattr__(name: str) -> Any:
    if name in _LINT_EXPORTS:
        from repro.devtools import lint

        return getattr(lint, name)
    if name in _RULE_EXPORTS:
        from repro.devtools import rules

        return getattr(rules, name)
    if name in _PROJECT_EXPORTS:
        from repro.devtools import project

        return getattr(project, name)
    if name in _PROJECT_RULE_EXPORTS:
        from repro.devtools import project_rules

        return getattr(project_rules, name)
    if name == "sanitizers":
        from repro.devtools import sanitizers

        return sanitizers
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
