"""Per-layer spans, installed from outside the program under test.

A :class:`Tracer` replaces the public entry points listed in
:data:`TARGETS` with wrappers that record one span per call (name,
start, end, parent span) into flat in-memory arrays, plus call and item
counts at the same boundary. Nothing in ``src/`` changes: methods are
swapped on the class that defines them and module functions at the
module that looks them up, and :meth:`Tracer.installed` puts every
original object back on exit. The untraced benchmark pass never builds
a tracer, so it installs no wrapper.

A span's *self* time is its duration minus the durations of its direct
child spans; the self times of one operation's spans add up to the time
its outermost spans cover.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

Counter = Callable[[tuple, Any], Dict[str, float]]


def _result_len(_args: tuple, result: Any) -> Dict[str, float]:
    return {"items": len(result)}


def _mask_decisions(_args: tuple, result: Any) -> Dict[str, float]:
    drops = result[0] if isinstance(result, tuple) else result
    return {"decisions": int(np.asarray(drops).size)}


def _offer_accepted(_args: tuple, result: Any) -> Dict[str, float]:
    return {"accepted": 1 if result.stored else 0}


def _decoded_bytes(args: tuple, _result: Any) -> Dict[str, float]:
    return {"bytes": len(args[0])}


def _encoded_bytes(_args: tuple, result: Any) -> Dict[str, float]:
    return {"bytes": len(result)}


def _integrate_steps(_args: tuple, result: Any) -> Dict[str, float]:
    return {"steps": result.steps}


def _run_tasks(_args: tuple, result: Any) -> Dict[str, float]:
    return {"tasks": len(result)}


@dataclass(frozen=True)
class Target:
    """One entry point to wrap.

    Attributes:
        module: the module that holds the attribute (for a function, the
            module that *looks it up* at call time).
        owner: a class name inside ``module``; the attribute is wrapped
            on that class and on every subclass that defines its own.
            ``None`` wraps a module-level attribute.
        attr: the attribute name.
        span: the layer name; ``None`` counts calls without a span.
        counter: extra per-call counts read from the arguments/result.
    """

    module: str
    owner: Optional[str]
    attr: str
    span: Optional[str]
    counter: Optional[Counter] = None


#: The layer boundaries the traced pass measures.
TARGETS: Tuple[Target, ...] = (
    Target("repro.sim.fleet", None, "run_fleet_scenario", "sim.fleet"),
    Target("repro.sim.fleet", None, "bernoulli_drop_mask", "sim.channel.mask", _mask_decisions),
    Target("repro.sim.fleet", None, "gilbert_elliott_drop_mask", "sim.channel.mask", _mask_decisions),
    Target("repro.sim.fleet", None, "fleet_summary_from_arrays", "sim.metrics.summary"),
    Target("repro.crypto.mac", "MicroMacScheme", "compute_many", "crypto.umac.compute_many", _result_len),
    Target("repro.crypto.mac", "MicroMacScheme", "compute", "crypto.umac.compute"),
    Target("repro.crypto.mac", "MicroMacScheme", "verify", "crypto.umac.verify"),
    Target("repro.crypto.mac", "MacScheme", "compute", "crypto.mac.compute"),
    Target("repro.crypto.mac", "MacScheme", "compute_many", "crypto.mac.compute_many", _result_len),
    Target("repro.crypto.mac", "MacScheme", "verify_many", "crypto.mac.verify_many", _result_len),
    Target("repro.buffers.reservoir", "PacketBuffer", "offer", "buffers.offer", _offer_accepted),
    Target("repro.net.daemons", None, "decode_packet", "protocols.wire.decode", _decoded_bytes),
    Target("repro.net.daemons", None, "encode_packet", "protocols.wire.encode", _encoded_bytes),
    Target("repro.net.flood", None, "encode_packet", "protocols.wire.encode", _encoded_bytes),
    Target("repro.protocols.base", "BroadcastReceiver", "receive", "protocols.receive"),
    Target("repro.protocols.base", "BroadcastSender", "packets_for_interval", "protocols.sender.packets"),
    Target("repro.net.transport", "LoopbackNetwork", "run", "net.loopback_run"),
    Target("repro.net.harness", None, "run_loopback_soak", "net.soak"),
    Target("repro.game.optimizer", None, "stable_points", "game.ess.stable_points"),
    Target("repro.game.optimizer", "EquilibriumSolver", "solve", None),
    Target("repro.game.optimizer", None, "realized_ess", None),
    Target("repro.game.replicator", "ReplicatorDynamics", "integrate", "game.replicator.integrate", _integrate_steps),
    Target("repro.game.replicator", "BatchedReplicator", "integrate", "game.replicator.batch_integrate"),
    Target("repro.game.optimizer", "BufferOptimizer", "optimize", "game.optimizer.optimize"),
    Target("repro.analysis.costs", None, "cost_curves", "analysis.cost_curves"),
    Target("repro.analysis.trajectories", None, "regime_bands", "analysis.regime_bands"),
    Target("repro.analysis.bandwidth", None, "fig5_series", "analysis.fig5_series"),
    Target("repro.analysis.costs", None, "run_tasks", "engine.run_tasks", _run_tasks),
)


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def patch_sites() -> List[Tuple[object, str, Target]]:
    """Every ``(owner object, attribute, target)`` of :data:`TARGETS`.

    A class target covers the class and every loaded subclass that
    defines the attribute itself (abstract declarations excluded), so
    an override is wrapped where it lives, once.
    """
    sites: List[Tuple[object, str, Target]] = []
    for target in TARGETS:
        module = importlib.import_module(target.module)
        if target.owner is None:
            sites.append((module, target.attr, target))
            continue
        for cls in _subclasses(getattr(module, target.owner)):
            original = cls.__dict__.get(target.attr)
            if original is None or getattr(original, "__isabstractmethod__", False):
                continue
            sites.append((cls, target.attr, target))
    return sites


class Tracer:
    """Records spans and counts for the operations of one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._span_name = array("H")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: List[int] = []
        self.op_first: List[int] = []
        self._counts: Dict[str, float] = {}

    def _name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def _count(self, key: str, amount: float) -> None:
        self._counts[key] = self._counts.get(key, 0) + amount

    def wrap(self, fn: Callable[..., Any], target: Target) -> Callable[..., Any]:
        """The traced replacement for ``fn``."""
        counter = target.counter
        prefix = target.span or f"{target.module}.{target.attr}"
        calls_key = f"{prefix}.calls"
        clock = time.perf_counter
        if target.span is None:

            def counted(*args: Any, **kwargs: Any) -> Any:
                self._count(calls_key, 1)
                return fn(*args, **kwargs)

            return counted

        name_id = self._name_id(target.span)
        names, parents = self._span_name, self._span_parent
        starts, ends, stack = self._span_start, self._span_end, self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            self._count(calls_key, 1)
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                for key, amount in counter(args, result).items():
                    self._count(f"{prefix}.{key}", amount)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every target for the duration of the block."""
        restore: List[Tuple[object, str, Any]] = []
        try:
            for owner, attr, target in patch_sites():
                original = (
                    owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                )
                restore.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, target))
            yield
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def begin_op(self) -> None:
        """Start attributing spans and counts to a new operation."""
        self.op_first.append(len(self._span_start))
        self._counts = {}

    def end_op(self) -> Dict[str, float]:
        """Per-layer self times (``<span>.self_s``) and counts of the
        operation begun last, plus ``span_self_total_s``."""
        first = self.op_first[-1]
        names = np.frombuffer(self._span_name, dtype=np.uint16)[first:]
        parents = np.frombuffer(self._span_parent, dtype=np.int64)[first:] - first
        duration = (
            np.frombuffer(self._span_end, dtype=np.float64)[first:]
            - np.frombuffer(self._span_start, dtype=np.float64)[first:]
        )
        nested = parents >= 0
        child_time = np.bincount(
            parents[nested], weights=duration[nested], minlength=len(duration)
        )
        self_time = duration - child_time[: len(duration)]
        per_name = np.bincount(names, weights=self_time, minlength=len(self.names))
        row = dict(self._counts)
        for index, name in enumerate(self.names):
            row[f"{name}.self_s"] = float(per_name[index])
        row["span_self_total_s"] = float(self_time.sum())
        return row

    def write(self, path: str) -> None:
        """Write every recorded span to ``path`` (``numpy.savez_compressed``)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._span_name, dtype=np.uint16),
            parent=np.frombuffer(self._span_parent, dtype=np.int64),
            start=np.frombuffer(self._span_start, dtype=np.float64),
            end=np.frombuffer(self._span_end, dtype=np.float64),
            op_first=np.array(self.op_first, dtype=np.int64),
        )
