"""Redundant execution time and system reliability (Eqs. 1, 5-10).

This module covers everything the paper derives about the *redundancy*
side of the combined model:

* Eq. 1  — communication-amplified execution time ``t_Red``;
* Eqs. 5-8 — partitioning ``N`` virtual processes under a real-valued
  (partial) redundancy degree ``r`` into a ``floor(r)``-replicated set
  and a ``ceil(r)``-replicated set;
* Eq. 9  — system reliability ``R_sys`` (product of all sphere
  survival probabilities);
* Eq. 10 — derived system failure rate ``lambda_sys`` and MTBF
  ``Theta_sys``;
* Section 4.3's birthday-problem approximation for the probability of a
  primary and its shadow failing together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .reliability import _node_failure, _where, integer_power, node_failure_probability

#: Redundancy degrees the paper sweeps (1x .. 3x in 0.25 steps).
PAPER_REDUNDANCY_GRID = tuple(1.0 + 0.25 * i for i in range(9))


def _redundant_time(base_time, alpha, redundancy):
    """Eq. 1 for scalars or arrays."""
    return (1.0 - alpha) * base_time + alpha * base_time * redundancy


def redundant_time(base_time: float, alpha: float, redundancy: float) -> float:
    """Execution time under ``r``-way redundancy (Eq. 1).

    ``t_Red = (1 - alpha) * t + alpha * t * r``

    Only the communication share ``alpha`` of the base time ``t`` is
    amplified: the interposition layer turns every point-to-point call
    into ``r`` point-to-point calls, while computation is unaffected
    because replicas run on *extra* nodes (model assumption 2).

    Parameters
    ----------
    base_time:
        Failure-free execution time ``t`` without redundancy (seconds).
    alpha:
        Communication-to-computation ratio in ``[0, 1]`` (CG: 0.2).
    redundancy:
        Real-valued redundancy degree ``r >= 1``.
    """
    if base_time < 0:
        raise ConfigurationError(f"base_time must be >= 0, got {base_time}")
    if not 0.0 <= alpha <= 1.0:
        raise ConfigurationError(f"alpha must be in [0, 1], got {alpha}")
    if redundancy < 1.0:
        raise ConfigurationError(f"redundancy must be >= 1, got {redundancy}")
    return _redundant_time(base_time, alpha, redundancy)


@dataclass(frozen=True)
class RedundancyPartition:
    """The Eq. 5-8 partition of ``N`` virtual processes under degree ``r``.

    Attributes
    ----------
    virtual_processes:
        ``N`` — the application's (virtual) process count.
    redundancy:
        The requested real-valued degree ``r``.
    floor_level / ceil_level:
        ``floor(r)`` and ``ceil(r)`` — the two integer replication
        levels present in the system.
    floor_count / ceil_count:
        ``N_{floor(r)}`` and ``N_{ceil(r)}`` — how many virtual
        processes run at each level (Eqs. 6-7).
    total_processes:
        ``N_total`` — physical processes consumed (Eq. 8).
    """

    virtual_processes: int
    redundancy: float
    floor_level: int
    ceil_level: int
    floor_count: int
    ceil_count: int
    total_processes: int

    @property
    def effective_redundancy(self) -> float:
        """Realised degree ``N_total / N`` (≤ requested ``r``, Eq. 8)."""
        return self.total_processes / self.virtual_processes

    def replication_of(self, virtual_rank: int) -> int:
        """Integer replication level assigned to one virtual rank.

        By convention (matching the paper's experiments, where "1.5x
        means every other process has a replica"), the *lower*-numbered
        virtual ranks get the *higher* replication level.
        """
        if not 0 <= virtual_rank < self.virtual_processes:
            raise ConfigurationError(
                f"virtual rank {virtual_rank} outside [0, {self.virtual_processes})"
            )
        if virtual_rank < self.ceil_count:
            return self.ceil_level
        return self.floor_level


def _partition(virtual_processes, redundancy):
    """Eqs. 5-8 for scalars or arrays, as floats.

    Returns ``(floor_level, ceil_level, floor_count, ceil_count,
    total_processes)``.
    """
    floor_level = np.floor(redundancy)
    ceil_level = np.ceil(redundancy)
    # Integer r leaves the floor set empty.  The tiny epsilon guards
    # against float artifacts like (2 - 1.1) * 30 == 26.999999999999996
    # flooring to 26.
    floor_count = _where(
        floor_level == ceil_level,
        0.0,
        np.floor((ceil_level - redundancy) * virtual_processes + 1e-9),
    )
    ceil_count = virtual_processes - floor_count
    total = ceil_count * ceil_level + floor_count * floor_level
    return floor_level, ceil_level, floor_count, ceil_count, total


def partition_processes(virtual_processes: int, redundancy: float) -> RedundancyPartition:
    """Split ``N`` virtual processes into the Eq. 5-8 partial-r partition.

    ``N_{floor(r)} = floor((ceil(r) - r) * N)`` (Eq. 6) and
    ``N_{ceil(r)} = N - N_{floor(r)}`` (Eq. 7).  When ``r`` is an
    integer the floor set is empty and every process runs at level
    ``r`` exactly.
    """
    if virtual_processes < 1:
        raise ConfigurationError(
            f"virtual_processes must be >= 1, got {virtual_processes}"
        )
    if redundancy < 1.0:
        raise ConfigurationError(f"redundancy must be >= 1, got {redundancy}")
    return _partition_record(
        virtual_processes, redundancy, _partition(virtual_processes, redundancy)
    )


def _partition_record(virtual_processes, redundancy, partition) -> RedundancyPartition:
    """The :class:`RedundancyPartition` of one scalar :func:`_partition`."""
    return RedundancyPartition(virtual_processes, redundancy, *map(int, partition))


def _system_reliability(p, floor_level, ceil_level, floor_count, ceil_count):
    """Eq. 9 in log space, for scalars or arrays.

    ``p`` is the node failure probability.  It never exceeds 1, and a
    product of factors below 1 stays below 1, so a sphere fails surely
    exactly when ``p == 1`` — and then, since ``N >= 1``, so does the
    system.
    """
    certain = p >= 1.0
    p = _where(certain, 0.0, p)
    floor_fail = integer_power(p, floor_level)
    # p^ceil(r) extends the same multiply chain by one step, so it equals
    # integer_power(p, ceil_level) bit for bit.
    ceil_fail = _where(ceil_level > floor_level, floor_fail * p, floor_fail)
    # An empty set contributes a signed zero, which leaves the sum as is.
    log_r = floor_count * np.log1p(-floor_fail) + ceil_count * np.log1p(-ceil_fail)
    return _where(certain, 0.0, np.exp(log_r))


def _failure_rate(reliability, exposure_time):
    """Eq. 10's ``-ln(R_sys) / t_Red``; ``inf`` where ``R_sys`` is 0."""
    alive = reliability > 0.0
    rate = -np.log(_where(alive, reliability, 1.0)) / exposure_time
    return _where(alive, rate, np.inf)


def _system_mtbf(rate):
    """Eq. 10's ``1 / lambda``: ``inf`` when failure-free, 0 when diverged."""
    finite = (rate > 0.0) & (rate < np.inf)
    inverse = 1.0 / _where(finite, rate, 1.0)
    return _where(finite, inverse, _where(rate == 0.0, np.inf, 0.0))


def system_reliability(
    virtual_processes: int,
    redundancy: float,
    exposure_time: float,
    node_mtbf: float,
    exact: bool = False,
) -> float:
    """Probability that *every* virtual process survives (Eq. 9).

    ``R_sys = [1 - p^floor(r)]^{N_floor} * [1 - p^ceil(r)]^{N_ceil}``

    where ``p = Pr(node failure before exposure_time)`` — linearised
    ``t_Red/theta`` by default, exact exponential CDF with
    ``exact=True``.

    Computed in log space: at the paper's scales (``N`` up to 10^6) the
    direct product underflows.
    """
    part = partition_processes(virtual_processes, redundancy)
    p = node_failure_probability(exposure_time, node_mtbf, exact=exact)
    return float(
        _system_reliability(
            p, part.floor_level, part.ceil_level, part.floor_count, part.ceil_count
        )
    )


def system_failure_rate(
    virtual_processes: int,
    redundancy: float,
    exposure_time: float,
    node_mtbf: float,
    exact: bool = False,
) -> float:
    """System failure rate ``lambda_sys = -ln(R_sys) / t_Red`` (Eq. 10).

    Returns ``inf`` when the system reliability is zero over the
    exposure interval (the linearised model with ``t_Red >= theta``).
    """
    if exposure_time <= 0:
        raise ConfigurationError(f"exposure_time must be > 0, got {exposure_time}")
    r_sys = system_reliability(
        virtual_processes, redundancy, exposure_time, node_mtbf, exact=exact
    )
    return float(_failure_rate(r_sys, exposure_time))


def system_mtbf(
    virtual_processes: int,
    redundancy: float,
    exposure_time: float,
    node_mtbf: float,
    exact: bool = False,
) -> float:
    """System MTBF ``Theta_sys = 1 / lambda_sys`` (Eq. 10).

    Returns ``inf`` for a failure-free system (``R_sys == 1``) and
    ``0.0`` when the failure rate diverges.
    """
    rate = system_failure_rate(
        virtual_processes, redundancy, exposure_time, node_mtbf, exact=exact
    )
    return float(_system_mtbf(rate))


def birthday_collision_probability(n: int) -> float:
    """Section 4.3's printed birthday-problem approximation.

    ``p(n) ~= 1 - ((n - 2) / n)^(n (n - 1) / 2)`` for ``n`` nodes —
    implemented exactly as printed.  Note the printed expression is the
    probability of *some* pairwise collision over many failures, which
    tends to **1** as ``n`` grows (``ln`` of the power behaves like
    ``-(n-1)``); the quantity the paper's surrounding text reasons
    about — a failure striking one *specific* shadow node out of the
    remaining ``n - 1`` — is :func:`shadow_hit_probability`, which does
    vanish, motivating why dual redundancy scales.  Both are provided;
    the discrepancy is documented in DESIGN.md.
    """
    if n < 3:
        raise ConfigurationError(f"birthday approximation needs n >= 3, got {n}")
    exponent = n * (n - 1) / 2.0
    return -math.expm1(exponent * math.log1p(-2.0 / n))


def shadow_hit_probability(n: int) -> float:
    """Probability that the next failure hits one specific shadow node.

    After a primary fails, only one of the remaining ``n - 1`` nodes is
    its shadow; a uniformly-arriving second failure hits it with
    probability ``1 / (n - 1)`` — the vanishing quantity behind "and
    choosing just that shadow node becomes less likely as the number of
    nodes increases" (Section 1).
    """
    if n < 2:
        raise ConfigurationError(f"need n >= 2 nodes, got {n}")
    return 1.0 / (n - 1)
