"""Rank→node placement policies.

The paper's model assumption 2: every physical process gets its *own*
node, so redundancy never slows computation down.  That is
:func:`spread_placement`.  :func:`packed_placement` is the ablation's
alternative: fill each node's cores before moving on (how Ferreira et
al.'s study doubles processes up on the same nodes).
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import AllocationError, ConfigurationError
from .machine import Machine


def _healthy_nodes(machine: Machine, needed: int) -> List[int]:
    nodes = [node.index for node in machine.up_nodes()]
    if len(nodes) < needed:
        raise AllocationError(
            f"placement needs {needed} up nodes, machine has {len(nodes)}"
        )
    return nodes


def spread_placement(machine: Machine, rank_count: int) -> Dict[int, int]:
    """One rank per node (the paper's assumption 2).

    Returns a mapping ``physical rank -> node index``.
    """
    if rank_count < 1:
        raise ConfigurationError(f"rank_count must be >= 1, got {rank_count}")
    nodes = _healthy_nodes(machine, rank_count)
    return {rank: nodes[rank] for rank in range(rank_count)}


def packed_placement(machine: Machine, rank_count: int) -> Dict[int, int]:
    """Fill each node's cores before using the next node."""
    if rank_count < 1:
        raise ConfigurationError(f"rank_count must be >= 1, got {rank_count}")
    per_node = machine.cores_per_node
    needed_nodes = -(-rank_count // per_node)  # ceil division
    nodes = _healthy_nodes(machine, needed_nodes)
    return {rank: nodes[rank // per_node] for rank in range(rank_count)}

