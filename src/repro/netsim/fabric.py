"""The delivery fabric: turns (src node, dst node, size) into delays.

The fabric is deliberately stateless about individual messages — it is
a *cost oracle*.  Message queueing, matching and loss-on-failure
semantics live in :mod:`repro.mpi`; the fabric only answers "how long
does this transfer take" and "how long is the sender busy".

Optional deterministic jitter (drawn from a named RNG stream) models
OS noise and switch contention without sacrificing reproducibility.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from .latency import AlphaBetaModel

#: Latency multiplier between ranks on one node (shared-memory
#: transport); ranks on different nodes are one fabric hop apart.
_LOOPBACK = 0.1


class Fabric:
    """Interconnect cost oracle.

    Parameters
    ----------
    model:
        Base :class:`AlphaBetaModel`.  Every pair of nodes is one hop
        apart (a flat crossbar); a message within one node pays a tenth
        of the model latency.
    jitter:
        Coefficient of variation of a lognormal noise factor applied to
        every delay (0 disables noise).
    rng:
        Generator used for jitter; required when ``jitter > 0``.
    """

    def __init__(
        self,
        model: Optional[AlphaBetaModel] = None,
        jitter: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0, got {jitter}")
        if jitter > 0 and rng is None:
            raise ConfigurationError("jitter > 0 requires an rng")
        self.model = model or AlphaBetaModel()
        self.jitter = jitter
        self._rng = rng
        if jitter > 0:
            # Lognormal with unit mean: sigma from the CV, mu = -sigma^2/2.
            self._sigma = float(np.sqrt(np.log1p(jitter**2)))
            self._mu = -0.5 * self._sigma**2

    def _noise(self) -> float:
        if self.jitter == 0:
            return 1.0
        return float(self._rng.lognormal(mean=self._mu, sigma=self._sigma))

    def delivery_delay(self, src_node: int, dst_node: int, nbytes: int) -> float:
        """Seconds until an ``nbytes`` message from src arrives at dst."""
        hops = _LOOPBACK if src_node == dst_node else 1.0
        base = self.model.latency * hops + nbytes / self.model.bandwidth
        return base * self._noise()

    def wire_latency(self, src_node: int, dst_node: int) -> float:
        """Pure propagation time after the sender finished injecting."""
        hops = _LOOPBACK if src_node == dst_node else 1.0
        return self.model.latency * hops * self._noise()

    def sender_busy_time(self, src_node: int, dst_node: int, nbytes: int) -> float:
        """Seconds the sending rank is occupied injecting the message."""
        base = self.model.sender_time(nbytes)
        if src_node == dst_node:
            # Shared-memory transport: no rendezvous round trips, but the
            # software-stack overhead per message remains.
            base = self.model.cpu_overhead + nbytes / self.model.bandwidth
        return base * self._noise()
