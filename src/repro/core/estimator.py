"""Per-backend latency estimation from per-flow ``T_LB`` samples.

Flows measured by ENSEMBLETIMEOUT are pinned to backends (conntrack),
so each sample can be attributed to the backend serving that flow.  The
estimator maintains, per backend:

* a time-decaying EWMA (robust to uneven per-backend sample rates), and
* an exact sliding-window p95 (matches the paper's tail-latency focus).

The controller asks for a ranking; ``metric`` selects which statistic
ranks backends.  Backends with fewer than ``min_samples`` recent samples
are excluded from ranking decisions — shifting traffic based on one
noisy sample is how thundering herds start (paper §5, question 4).

With a :class:`~repro.resilience.quality.SignalQualityTracker`
attached (:meth:`BackendLatencyEstimator.attach_quality`), the
estimator also grades what it serves: ranking calls that pass ``now``
exclude backends whose signal has been invalidated and flag estimates
that have gone stale, so downstream consumers can refuse to act on a
signal they don't trust.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.telemetry.ewma import TimeDecayEwma
from repro.telemetry.quantiles import WindowedQuantile
from repro.units import MILLISECONDS

if TYPE_CHECKING:  # pragma: no cover - type-only (resilience imports core)
    from repro.resilience.quality import SignalQualityTracker


@dataclass
class EstimatorConfig:
    """Estimator tunables."""

    metric: str = "ewma"            # "ewma" | "p95" | "p50"
    window: int = 64                # samples kept per backend
    tau: int = 10 * MILLISECONDS    # EWMA time constant
    min_samples: int = 3            # samples needed before ranking

    def validate(self) -> None:
        """Raise ValueError on malformed parameters."""
        if self.metric not in ("ewma", "p95", "p50"):
            raise ValueError("unknown metric %r" % self.metric)
        if self.window <= 0 or self.tau <= 0 or self.min_samples <= 0:
            raise ValueError("estimator parameters must be positive")


@dataclass
class BackendEstimate:
    """Snapshot of one backend's estimated latency."""

    backend: str
    value: float
    samples: int
    last_sample_at: int
    #: True when an attached quality tracker graded the signal stale
    #: (set only by ranking calls that pass ``now``).
    stale: bool = False


class _BackendState:
    __slots__ = ("ewma", "window", "samples", "last_sample_at")

    def __init__(self, config: EstimatorConfig):
        self.ewma = TimeDecayEwma(tau=config.tau)
        self.window = WindowedQuantile(window=config.window)
        self.samples = 0
        self.last_sample_at = 0


class BackendLatencyEstimator:
    """Aggregates ``T_LB`` samples into per-backend latency estimates."""

    def __init__(self, config: Optional[EstimatorConfig] = None):
        self.config = config or EstimatorConfig()
        self.config.validate()
        self._backends: Dict[str, _BackendState] = {}
        self.total_samples = 0
        self._quality: Optional["SignalQualityTracker"] = None
        self._metrics = None

    def attach_quality(self, tracker: "SignalQualityTracker") -> None:
        """Grade served estimates with ``tracker`` (fed on observe)."""
        self._quality = tracker

    def attach_metrics(self, metrics) -> None:
        """Attach estimator instruments (see :mod:`repro.obs.plane`)."""
        self._metrics = metrics

    @property
    def quality(self) -> Optional["SignalQualityTracker"]:
        """The attached signal-quality tracker, if any."""
        return self._quality

    def observe(self, backend: str, now: int, t_lb: int) -> None:
        """Attribute one ``T_LB`` sample (ns) to ``backend``."""
        if t_lb < 0:
            raise ValueError("negative latency sample: %d" % t_lb)
        state = self._backends.get(backend)
        if state is None:
            state = _BackendState(self.config)
            self._backends[backend] = state
        state.ewma.observe(now, float(t_lb))
        state.window.observe(float(t_lb))
        state.samples += 1
        state.last_sample_at = now
        self.total_samples += 1
        if self._quality is not None:
            self._quality.observe(backend, now, float(t_lb))
        if self._metrics is not None:
            self._metrics.samples.labels(backend=backend).inc()
            if t_lb > 0:  # the log-bucketed histogram needs positive values
                self._metrics.latency.labels(backend=backend).observe(float(t_lb))

    def estimate(self, backend: str) -> Optional[float]:
        """Current estimate for ``backend`` (ns), or None if unknown."""
        state = self._backends.get(backend)
        if state is None:
            return None
        return self._metric_value(state)

    def sample_counts(self) -> Dict[str, int]:
        """Samples folded in per backend so far (pure read, sorted)."""
        return {name: s.samples for name, s in sorted(self._backends.items())}

    def snapshot(self, now: Optional[int] = None) -> List[BackendEstimate]:
        """Estimates for all backends meeting ``min_samples``.

        With a quality tracker attached and ``now`` given, backends
        whose signal has been invalidated are excluded and estimates
        with a stale signal carry ``stale=True``.
        """
        grade = None
        if self._quality is not None and now is not None:
            from repro.resilience.quality import SignalGrade

            grade = {
                name: self._quality.grade(name, now) for name in self._backends
            }
        result = []
        for name, state in sorted(self._backends.items()):
            if state.samples < self.config.min_samples:
                continue
            stale = False
            if grade is not None:
                if grade[name] is SignalGrade.INVALID:
                    continue
                stale = grade[name] is not SignalGrade.FRESH
            value = self._metric_value(state)
            if value is None:
                continue
            result.append(
                BackendEstimate(
                    backend=name,
                    value=value,
                    samples=state.samples,
                    last_sample_at=state.last_sample_at,
                    stale=stale,
                )
            )
        return result

    def worst_and_best(self, now: Optional[int] = None) -> Optional[tuple]:
        """(worst, best) :class:`BackendEstimate` pair, or None if < 2."""
        estimates = self.snapshot(now)
        if len(estimates) < 2:
            return None
        ranked = sorted(estimates, key=lambda e: e.value)
        return ranked[-1], ranked[0]

    def forget(self, backend: str) -> None:
        """Drop a backend's state (pool churn)."""
        self._backends.pop(backend, None)
        if self._quality is not None:
            self._quality.forget(backend)

    def _metric_value(self, state: _BackendState) -> Optional[float]:
        if self.config.metric == "ewma":
            return state.ewma.value
        if self.config.metric == "p95":
            return state.window.quantile(0.95)
        return state.window.quantile(0.50)
