"""Timing wrappers installed from outside the program.

Two instruments, both installed by rebinding attributes of the
program's classes and modules before ``build_scenario`` runs, and both
removable again.  Nothing under ``src/`` is edited.

* :class:`Probe` is cheap enough for the timed run: it stamps every
  ``Simulator.run_until`` call (the first simulated event ends set-up)
  and keeps every ``Scenario`` that ``build_scenario`` returns, so the
  benchmark can read the program's own counters after the run.
* :class:`Ledger` is the traced run: a span at each layer boundary,
  aggregated per boundary in memory (count, inclusive and self time)
  and written out when the run ends.  A layer's self time is its span
  time minus the time of spans nested inside it; time inside
  ``run_until`` that no other span claims is charged to ``sim``.

Wrappers are installed on class attributes, so a method a component
prebinds at construction (``self._send_via = network.send_via``) picks
up the wrapper as long as it is installed first.  A method prebound
before that, or a call path that bypasses a boundary, shows up as a
coverage mismatch between wrapper counts and the program's counters
(see :func:`layers.guards`).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

def layer_of(fn: Callable) -> str:
    """The ``repro`` subpackage that owns ``fn`` (bound method or function)."""
    owner = getattr(fn, "__self__", None)
    module = type(owner).__module__ if owner is not None else fn.__module__
    parts = (module or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return parts[0] or "unknown"


class SetupReached(BaseException):
    """Raised at the first simulated event when only set-up is measured.

    A ``BaseException`` so that the sweep executor's retry handler
    (``except Exception``) lets it through; a forked worker sends it back
    to the parent like any other exception.
    """

    def __init__(self, stamp: float):
        super().__init__(stamp)
        self.stamp = stamp


class _Patches:
    """Attribute rebinds that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object, bool]] = []

    def set(self, target: object, name: str, value: object) -> None:
        had = name in vars(target)
        self._undo.append((target, name, vars(target).get(name), had))
        setattr(target, name, value)

    def rebind_function(self, prefix: str, name: str, original, value) -> None:
        """Point every ``prefix*`` module's ``name`` at ``value``.

        Functions imported by name (``from x import build_scenario``) live
        on in each importing module, so each binding is replaced.
        """
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith(prefix) or module is None:
                continue
            if vars(module).get(name) is original:
                self.set(module, name, value)

    def undo(self) -> None:
        while self._undo:
            target, name, value, had = self._undo.pop()
            if had:
                setattr(target, name, value)
            else:
                delattr(target, name)


#: The probe installed in this process; forked sweep workers inherit it.
_ACTIVE_PROBE: Optional["Probe"] = None


def active_probe() -> "Probe":
    if _ACTIVE_PROBE is None:
        raise RuntimeError("no probe installed in this process")
    return _ACTIVE_PROBE


class Probe:
    """Stamps ``run_until`` calls and captures built scenarios."""

    def __init__(self, stop_at_first_event: bool = False):
        #: ``(enter, exit)`` monotonic stamps, one per ``run_until`` call.
        self.runs: List[Tuple[float, float]] = []
        self.scenarios: List[object] = []
        self.stop_at_first_event = stop_at_first_event
        self._patches = _Patches()

    def install(self) -> None:
        global _ACTIVE_PROBE
        import repro.harness.scenario as scenario_module
        from repro.sim.engine import Simulator

        clock = time.monotonic
        runs = self.runs
        probe = self
        run_until = Simulator.run_until

        def stamped_run_until(sim, *args, **kwargs):
            enter = clock()
            if probe.stop_at_first_event:
                raise SetupReached(enter)
            try:
                return run_until(sim, *args, **kwargs)
            finally:
                runs.append((enter, clock()))

        build = scenario_module.build_scenario
        scenarios = self.scenarios

        def captured_build(config):
            scenario = build(config)
            scenarios.append(scenario)
            return scenario

        self._patches.set(Simulator, "run_until", stamped_run_until)
        self._patches.rebind_function("repro", "build_scenario", build, captured_build)
        _ACTIVE_PROBE = self

    def uninstall(self) -> None:
        global _ACTIVE_PROBE
        self._patches.undo()
        _ACTIVE_PROBE = None


class _CallbackSlot:
    """Data descriptor that wraps an application callback when it is set.

    Transport invokes ``conn.on_message(conn, msg)`` and friends; the
    owner of the callback (client, server, health checker) is charged.
    """

    def __init__(self, ledger: "Ledger", name: str):
        self._ledger = ledger
        self._name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj.__dict__.get(self._name)

    def __set__(self, obj, value) -> None:
        if value is not None:
            value = self._ledger.span(
                layer_of(value), "callback." + self._name, value
            )
        obj.__dict__[self._name] = value


class Ledger:
    """Per-boundary span aggregates for one traced process."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.site_self_s: Dict[str, float] = defaultdict(float)
        self.site_layer: Dict[str, str] = {}
        #: Self time per layer, all spans.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Self time per layer accrued inside ``run_until`` roots.
        self.run_self_s: Dict[str, float] = defaultdict(float)
        #: ConnectionStats of every connection built while tracing.
        self.connection_stats: List[object] = []
        self._stack: List[float] = []
        self._patches = _Patches()

    # ------------------------------------------------------------------

    def span(self, layer: str, site: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call is one span of ``layer`` at ``site``."""
        clock = time.perf_counter
        stack = self._stack
        calls = self.calls
        inclusive = self.inclusive_s
        site_self = self.site_self_s
        layer_self = self.self_s
        self.site_layer[site] = layer

        def wrapper(*args, **kwargs):
            calls[site] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - stack.pop()
                layer_self[layer] += own
                site_self[site] += own
                inclusive[site] += elapsed
                if stack:
                    stack[-1] += elapsed

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", site)
        return wrapper

    def _wrap_method(self, cls, name: str, layer: str) -> None:
        site = "%s.%s" % (cls.__name__, name)
        self._patches.set(cls, name, self.span(layer, site, vars(cls)[name]))

    def install(self) -> None:
        """Wrap every layer boundary.  Call after :meth:`Probe.install`."""
        import repro.campaign.invariants as invariants
        import repro.harness.scenario as scenario_module
        from repro.fleet.autoscaler import AutoscalingGroup
        from repro.lb.dataplane import LoadBalancer
        from repro.lb.maglev import MaglevTable
        from repro.net.network import Network
        from repro.net.pipe import Pipe
        from repro.resilience.ladder import DegradationLadder
        from repro.sim.engine import Simulator
        from repro.transport.connection import Connection, ConnectionStats
        from repro.transport.endpoint import Host

        self._wrap_run_until(Simulator)
        self._wrap_method(Network, "send_from", "net")
        self._wrap_method(Network, "send_via", "net")
        self._wrap_method(Pipe, "send", "net")
        self._wrap_method(LoadBalancer, "on_packet", "lb")
        self._wrap_method(MaglevTable, "build", "lb")
        self._wrap_method(Host, "on_packet", "transport")
        for name in ("send_message", "open", "close"):
            self._wrap_method(Connection, name, "transport")
        for name in ("on_established", "on_message", "on_closed", "on_peer_close"):
            self._patches.set(Connection, name, _CallbackSlot(self, name))
        self._wrap_method(DegradationLadder, "evaluate", "resilience")
        self._wrap_method(AutoscalingGroup, "_tick", "fleet")
        for cls in _controller_classes():
            self._wrap_method(cls, "maybe_update", "controllers")

        add_tap = LoadBalancer.add_tap
        ledger = self

        def traced_add_tap(lb, tap):
            owner = layer_of(tap)
            return add_tap(lb, ledger.span(owner, "tap." + owner, tap))

        self._patches.set(LoadBalancer, "add_tap", traced_add_tap)

        evaluate = invariants.evaluate
        self._patches.set(
            invariants, "evaluate", self.span("campaign", "evaluate", evaluate)
        )
        build = scenario_module.build_scenario
        self._patches.rebind_function(
            "repro", "build_scenario", build, self.span("harness", "build_scenario", build)
        )

        stats_init = ConnectionStats.__init__
        registry = self.connection_stats

        def registered_init(stats, *args, **kwargs):
            stats_init(stats, *args, **kwargs)
            registry.append(stats)

        self._patches.set(ConnectionStats, "__init__", registered_init)

    def _wrap_run_until(self, simulator_cls) -> None:
        """``run_until`` is the root span; its self time is ``sim``'s."""
        inner = self.span("sim", "Simulator.run_until", vars(simulator_cls)["run_until"])
        ledger = self

        def run_root(sim, *args, **kwargs):
            before = dict(ledger.self_s)
            try:
                return inner(sim, *args, **kwargs)
            finally:
                for layer, total in ledger.self_s.items():
                    ledger.run_self_s[layer] += total - before.get(layer, 0.0)

        self._patches.set(simulator_cls, "run_until", run_root)

    def uninstall(self) -> None:
        self._patches.undo()

    # ------------------------------------------------------------------

    def balanced(self) -> bool:
        """Every span that opened also closed."""
        return not self._stack

    def spans_table(self) -> List[Dict[str, object]]:
        """The per-boundary aggregates, for the written record."""
        return [
            {
                "site": site,
                "layer": self.site_layer.get(site, "?"),
                "calls": self.calls[site],
                "inclusive_s": self.inclusive_s[site],
                "self_s": self.site_self_s[site],
            }
            for site in sorted(self.calls)
        ]


def _controller_classes() -> List[type]:
    """Every class of the control-law modules that defines ``maybe_update``."""
    import repro.controllers  # noqa: F401 - registers the zoo
    import repro.core.controller  # noqa: F401

    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (
            name.startswith("repro.controllers") or name == "repro.core.controller"
        ):
            continue
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == name
                and "maybe_update" in vars(value)
                and value not in found
            ):
                found.append(value)
    return found
