"""Reference Algorithm 2: the literal k-instance ENSEMBLETIMEOUT loop.

:class:`~repro.core.ensemble.EnsembleTimeout` fuses the k FIXEDTIMEOUT
instances into one O(log k) prefix roll.  This oracle keeps the
pseudocode's shape instead: every packet is fed to every
:class:`~repro.core.fixed_timeout.FixedTimeout`, each instance that
emits a sample bumps its epoch count ``Nᵢ``, and the instance at the
selected index supplies the reported ``T_LB``.  Epoch boundaries and
the cliff choice follow the paper (and the production class's
documented choices) line for line.

It exposes the same read surface as the production class
(``observe``, ``sample_counts``, ``cliff_history``, ``epochs_completed``,
``current_index``, ``instances``) so tests and benches can compare the
two on any arrival trace.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.ensemble import EnsembleConfig, detect_cliff_index
from repro.core.fixed_timeout import FixedTimeout


class NaiveEnsembleTimeout:
    """Algorithm 2 as written: k live FIXEDTIMEOUT instances per flow."""

    def __init__(self, config: Optional[EnsembleConfig] = None):
        self.config = config or EnsembleConfig()
        self.config.validate()
        self.instances: List[FixedTimeout] = [
            FixedTimeout(delta) for delta in self.config.timeouts
        ]
        self._counts = [0] * len(self.instances)
        self._epoch_start: Optional[int] = None
        self.current_index = self.config.initial_index
        self.epochs_completed = 0
        self.cliff_history: List[tuple] = []

    def sample_counts(self) -> List[int]:
        """This epoch's per-timeout sample counts so far (N_i)."""
        return list(self._counts)

    def observe(self, now: int) -> Optional[int]:
        """Feed one packet arrival; maybe emit a ``T_LB`` sample."""
        epoch = self.config.epoch
        if self._epoch_start is None:
            self._epoch_start = now
        elif now - self._epoch_start >= epoch:
            # First packet of a new epoch: pick δ at the sample cliff
            # (an idle epoch keeps the previous choice).
            if any(self._counts):
                self.current_index = detect_cliff_index(self._counts)
            self.cliff_history.append((now, self.current_index))
            self._counts = [0] * len(self.instances)
            span = now - self._epoch_start
            self._epoch_start += (span // epoch) * epoch
            self.epochs_completed += 1

        result: Optional[int] = None
        for index, instance in enumerate(self.instances):
            t_lb = instance.observe(now)
            if t_lb is not None:
                self._counts[index] += 1
                if index == self.current_index:
                    result = t_lb
        return result
