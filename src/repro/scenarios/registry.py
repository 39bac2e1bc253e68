"""The scenario registry: descriptors, registration, lookup.

This is the single source of truth for "what is a scenario". A
scenario is a named, immutable :class:`ScenarioDescriptor`: a frozen
:class:`~repro.sim.scenario.ScenarioConfig`, the workload family it
drives, its difficulty tier, the engines it is contracted to run on
(with an explicit exclusion reason when the vectorized fast path is
out), canonical seeds, and provenance notes tying catalog entries back
to the paper's figures or the related literature.

Builders register through the :func:`register_scenario` decorator::

    @register_scenario(
        name="fig5-t2",
        tier="T2",
        seeds=(7, 11),
        engines=("des", "vectorized"),
        provenance="paper Fig. 5 operating point",
    )
    def _fig5() -> ScenarioConfig:
        return tier("T2").apply(ScenarioConfig(protocol="dap", ...))

Registration is validated eagerly (name shape, tier, seeds, engine
declarations, workload/protocol consistency) so a bad catalog entry
fails at import, not at lookup.

The built-in catalog (:mod:`repro.scenarios.catalog`) is loaded
lazily on first lookup, keeping ``import repro.scenarios`` cheap and
cycle-free (this module never imports :mod:`repro.sim` at module
scope).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.scenarios.families import (
    ENGINES,
    TIER_NAMES,
    VECTORIZED_PROTOCOLS,
    WORKLOADS,
)

if TYPE_CHECKING:  # runtime sim imports stay lazy: see module docs
    from repro.sim.scenario import ScenarioConfig

__all__ = [
    "ScenarioDescriptor",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_names",
    "unregister_scenario",
]

_NAME_RE = re.compile(r"^[a-z0-9]+(?:-[a-z0-9]+)*$")

#: name -> descriptor, in registration order.
_REGISTRY: Dict[str, "ScenarioDescriptor"] = {}

_catalog_loaded = False


@dataclass(frozen=True)
class ScenarioDescriptor:
    """One registered scenario, immutable.

    Attributes:
        name: unique kebab-case catalog name.
        family: workload family (one of
            :data:`~repro.scenarios.families.WORKLOADS`), derived from
            ``config.workload``.
        tier: difficulty tier (``T0`` .. ``T3``).
        engines: engines this scenario is contracted to run on; always
            includes ``"des"`` (the reference engine).
        seeds: canonical seeds — what ``repro scenarios validate`` and
            :func:`~repro.sim.experiments.run_registered` use.
        config: the frozen scenario configuration itself.
        provenance: where the scenario comes from (paper figure,
            related-literature workload, generator spec).
        engine_exclusion: when ``"vectorized"`` is not declared, the
            explicit reason why (required — silent non-support is not
            an option).
        generated: True for entries minted by the programmatic
            generator rather than hand-registered in the catalog.
    """

    name: str
    family: str
    tier: str
    engines: Tuple[str, ...]
    seeds: Tuple[int, ...]
    config: "ScenarioConfig"
    provenance: str = ""
    engine_exclusion: Optional[str] = None
    generated: bool = False

    def supports_engine(self, engine: str) -> bool:
        """Whether this scenario is contracted to run on ``engine``."""
        return engine in self.engines


def _validate_descriptor(descriptor: ScenarioDescriptor) -> None:
    name = descriptor.name
    if not _NAME_RE.match(name):
        raise ConfigurationError(
            f"scenario name {name!r} is not kebab-case"
            " (lowercase letters, digits, single dashes)"
        )
    if descriptor.tier not in TIER_NAMES:
        raise ConfigurationError(
            f"scenario {name!r} declares unknown tier"
            f" {descriptor.tier!r}; pick one of {TIER_NAMES}"
        )
    if not descriptor.seeds:
        raise ConfigurationError(
            f"scenario {name!r} must declare at least one explicit seed"
        )
    if len(set(descriptor.seeds)) != len(descriptor.seeds):
        raise ConfigurationError(
            f"scenario {name!r} declares duplicate seeds {descriptor.seeds}"
        )
    if not descriptor.engines:
        raise ConfigurationError(
            f"scenario {name!r} must declare at least one engine"
        )
    unknown = [e for e in descriptor.engines if e not in ENGINES]
    if unknown:
        raise ConfigurationError(
            f"scenario {name!r} declares unknown engines {unknown};"
            f" valid engines: {ENGINES}"
        )
    if "des" not in descriptor.engines:
        raise ConfigurationError(
            f"scenario {name!r} must declare the reference engine 'des'"
        )
    if descriptor.family not in WORKLOADS:
        raise ConfigurationError(
            f"scenario {name!r} has unknown workload family"
            f" {descriptor.family!r}; valid families: {WORKLOADS}"
        )
    protocol = descriptor.config.protocol
    if "vectorized" in descriptor.engines:
        if protocol not in VECTORIZED_PROTOCOLS:
            raise ConfigurationError(
                f"scenario {name!r} declares 'vectorized' but protocol"
                f" {protocol!r} is outside the fast path"
                f" {VECTORIZED_PROTOCOLS}; declare engines=('des',) with"
                " an engine_exclusion reason instead"
            )
        if descriptor.engine_exclusion:
            raise ConfigurationError(
                f"scenario {name!r} declares 'vectorized' and an"
                " engine_exclusion reason — pick one"
            )
    elif not descriptor.engine_exclusion:
        raise ConfigurationError(
            f"scenario {name!r} does not declare 'vectorized' and gives"
            " no engine_exclusion reason; every scenario runs on both"
            " engines or says why not"
        )


def _register(descriptor: ScenarioDescriptor) -> ScenarioDescriptor:
    _validate_descriptor(descriptor)
    existing = _REGISTRY.get(descriptor.name)
    if existing is not None:
        if existing == descriptor:
            return existing  # idempotent re-registration (generator reruns)
        raise ConfigurationError(
            f"scenario {descriptor.name!r} is already registered with a"
            " different definition"
        )
    _REGISTRY[descriptor.name] = descriptor
    return descriptor


def register_scenario(
    *,
    name: str,
    tier: str,
    seeds: Tuple[int, ...],
    engines: Tuple[str, ...] = ("des", "vectorized"),
    provenance: str = "",
    engine_exclusion: Optional[str] = None,
) -> Callable[[Callable[[], "ScenarioConfig"]], Callable[[], "ScenarioConfig"]]:
    """Decorator: register the decorated zero-argument config builder.

    The builder runs once, at decoration time; its
    :class:`~repro.sim.scenario.ScenarioConfig` is frozen into an
    immutable :class:`ScenarioDescriptor`. The workload family is
    derived from ``config.workload`` so descriptor and config can never
    disagree. ``tier`` and ``seeds`` are required keyword-only
    arguments, so a registration omitting either (or passing it
    positionally) is a ``TypeError`` before the builder runs.
    """

    def decorate(
        builder: Callable[[], "ScenarioConfig"],
    ) -> Callable[[], "ScenarioConfig"]:
        config = builder()
        _register(
            ScenarioDescriptor(
                name=name,
                family=config.workload,
                tier=tier,
                seeds=tuple(seeds),
                engines=tuple(engines),
                config=config,
                provenance=provenance,
                engine_exclusion=engine_exclusion,
            )
        )
        return builder

    return decorate


def _ensure_catalog() -> None:
    """Load the built-in catalog exactly once, lazily."""
    global _catalog_loaded
    if _catalog_loaded:
        return
    _catalog_loaded = True  # set first: catalog import re-enters register
    import repro.scenarios.catalog  # noqa: F401  (registers on import)


def get_scenario(name: str) -> ScenarioDescriptor:
    """Look up a registered scenario (raises listing the valid names)."""
    _ensure_catalog()
    descriptor = _REGISTRY.get(name)
    if descriptor is None:
        raise ConfigurationError(
            f"unknown scenario {name!r}; registered scenarios:"
            f" {', '.join(scenario_names())}"
        )
    return descriptor


def list_scenarios(
    family: Optional[str] = None,
    tier: Optional[str] = None,
    engine: Optional[str] = None,
    protocol: Optional[str] = None,
) -> List[ScenarioDescriptor]:
    """Registered scenarios, name order, optionally filtered.

    Args:
        family: keep only this workload family.
        tier: keep only this difficulty tier.
        engine: keep only scenarios contracted to run on this engine.
        protocol: keep only scenarios driving this protocol.
    """
    _ensure_catalog()
    rows = sorted(_REGISTRY.values(), key=lambda d: d.name)
    if family is not None:
        rows = [d for d in rows if d.family == family]
    if tier is not None:
        rows = [d for d in rows if d.tier == tier]
    if engine is not None:
        rows = [d for d in rows if d.supports_engine(engine)]
    if protocol is not None:
        rows = [d for d in rows if d.config.protocol == protocol]
    return rows


def scenario_names() -> Tuple[str, ...]:
    """Every registered scenario name, sorted."""
    _ensure_catalog()
    return tuple(sorted(_REGISTRY))


def unregister_scenario(name: str) -> None:
    """Remove a registered scenario (tests and generator cleanup)."""
    _REGISTRY.pop(name, None)
