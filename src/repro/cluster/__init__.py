"""cluster — the machine model: nodes, allocation and spares.

Mirrors the paper's assumptions (Section 4): a *node* is the unit of
failure; each application process gets its own node; spare nodes are
readily available to replace failed ones.

* :mod:`node` — one failure-independent execution unit;
* :mod:`machine` — the cluster: node inventory, failure bookkeeping,
  spare replacement;
* :mod:`allocation` — rank→node placement policies (one rank per node
  per the paper, and packed).
"""

from .node import Node, NodeState
from .machine import Machine
from .allocation import packed_placement, spread_placement

__all__ = [
    "Machine",
    "Node",
    "NodeState",
    "packed_placement",
    "spread_placement",
]
