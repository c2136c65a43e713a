"""netsim — interconnect timing model for the simulated cluster.

Provides the message-transfer cost model the simulated MPI runtime uses
to charge wallclock time to communication.  Two pieces:

* :mod:`latency` — the alpha-beta (latency + bandwidth) transfer model;
* :mod:`fabric` — the delivery engine on a flat crossbar (one hop
  between nodes, a cheap loopback within one): given source node,
  destination node and message size, produce the arrival delay
  (optionally with deterministic jitter).
"""

from .latency import AlphaBetaModel
from .fabric import Fabric

__all__ = [
    "AlphaBetaModel",
    "Fabric",
]
