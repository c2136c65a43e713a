"""End-to-end combined redundancy + checkpointing model (Section 4.3).

:class:`CombinedModel` wires together Eq. 1 (redundant time), Eqs. 5-10
(partial-redundancy system reliability and failure rate), Eq. 15 (Daly's
interval) and Eq. 14 (total completion time) exactly the way the paper's
Figures 4-6 and 13-14 are produced:

1. amplify the base time for redundant communication:
   ``t_Red = (1 - alpha) t + alpha t r``;
2. compute the system failure rate over the ``t_Red`` exposure from the
   partial-redundancy partition;
3. choose the checkpoint interval (Daly's Eq. 15 by default, Young's
   rule optionally) at the *system* MTBF;
4. evaluate the Eq. 14 fixed point with the redundant time as the work
   term.

:func:`_evaluate` is that pipeline for scalars or arrays; both
:meth:`CombinedModel.evaluate` and :func:`~repro.models.grid.evaluate_grid`
run it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..errors import ConfigurationError, ModelDivergence
from .checkpointing import (
    TimeBreakdown,
    _breakdown,
    _completion,
    _daly,
    _finite_total,
    _young,
)
from .redundancy import (
    RedundancyPartition,
    _failure_rate,
    _partition,
    _partition_record,
    _redundant_time,
    _system_mtbf,
    _system_reliability,
)
from .reliability import _node_failure, _where

#: Supported checkpoint-interval rules.
INTERVAL_RULES = ("daly", "young")

#: The numeric domain of a model as ``(field, test, message)``; the
#: tests check one value or every cell of an array alike.
_DOMAIN = (
    ("virtual_processes", lambda v: v >= 1, "virtual_processes must be >= 1"),
    ("redundancy", lambda v: v >= 1.0, "redundancy must be >= 1"),
    ("node_mtbf", lambda v: v > 0, "node_mtbf must be > 0"),
    ("alpha", lambda v: (v >= 0.0) & (v <= 1.0), "alpha must be in [0, 1]"),
    ("base_time", lambda v: v > 0, "base_time must be > 0"),
    ("checkpoint_cost", lambda v: v > 0, "checkpoint_cost must be > 0"),
    ("restart_cost", lambda v: v >= 0, "restart_cost must be >= 0"),
)


def _check_domain(model, holds) -> None:
    """Raise for the first field out of its domain (``holds``: bool or np.all)."""
    for name, test, message in _DOMAIN:
        if not holds(test(getattr(model, name))):
            raise ConfigurationError(message)


def _evaluate(model):
    """One pass of the Section 4.3 pipeline over scalars or arrays.

    ``model`` is a :class:`CombinedModel` or has its fields as broadcast
    arrays.  Returns ``(t_Red, partition, R_sys, lambda, Theta_sys,
    delta, t_lw, t_RR, T_total)``; divergence is ``T_total = inf``.
    """
    c = model.checkpoint_cost
    t_red = _redundant_time(model.base_time, model.alpha, model.redundancy)  # Eq. 1
    partition = _partition(model.virtual_processes, model.redundancy)  # Eqs. 5-8
    p = _node_failure(t_red, model.node_mtbf, model.exact_reliability)  # Eqs. 2-3
    r_sys = _system_reliability(p, *partition[:4])  # Eqs. 4, 9
    rate = _failure_rate(r_sys, t_red)  # Eq. 10
    mtbf = _system_mtbf(rate)
    delta = model.checkpoint_interval
    if delta is None:
        # Eq. 15 (or Young), clamped to the nominal one-checkpoint run.
        # A zero rate gives an infinite MTBF and rule interval, so the
        # clamp is the failure-free branch (delta = t_Red), continuous
        # where the rate underflows to 0.0.  Diverged cells take an
        # infinite MTBF too, only to keep the rule finite.
        rule = _young if model.interval_rule == "young" else _daly
        rule_delta = rule(c, _where(rate < np.inf, mtbf, np.inf))
        delta = _where(rule_delta < t_red, rule_delta, t_red)
    t_lw, t_rr, total = _completion(t_red, delta, c, rate, model.restart_cost)  # Eqs. 12-14
    return t_red, partition, r_sys, rate, mtbf, delta, t_lw, t_rr, total


@dataclass(frozen=True)
class CombinedResult:
    """Everything the combined model derives for one configuration."""

    #: Input configuration echo (useful in sweep records).
    model: "CombinedModel"
    #: Eq. 1 — execution time with redundant communication, no failures.
    redundant_time: float
    #: Eqs. 5-8 — how virtual processes map to replication levels.
    partition: RedundancyPartition
    #: Eq. 9 — probability the whole system survives one ``t_Red`` run.
    system_reliability: float
    #: Eq. 10 — system failure rate (failures per second).
    failure_rate: float
    #: Eq. 10 — system MTBF (seconds; ``inf`` if failure-free).
    system_mtbf: float
    #: Eq. 15 (or Young) — checkpoint interval used.
    checkpoint_interval: float
    #: Eq. 14 — expected total wallclock time.
    total_time: float
    #: Work/checkpoint/recompute/restart split of ``total_time``.
    breakdown: TimeBreakdown

    @property
    def expected_checkpoints(self) -> float:
        """Expected number of checkpoints taken (``t_Red / delta``)."""
        return self.breakdown.checkpoints_taken

    @property
    def expected_failures(self) -> float:
        """Eq. 11 — ``T_total * lambda``."""
        return self.breakdown.expected_failures

    @property
    def total_processes(self) -> int:
        """Eq. 8 — physical processes (== nodes, assumption 2) consumed."""
        return self.partition.total_processes

    @property
    def node_seconds(self) -> float:
        """Resource usage: physical processes x wallclock time."""
        return self.total_processes * self.total_time


@dataclass(frozen=True)
class CombinedModel:
    """Parameter set for one combined C/R + redundancy configuration.

    Parameters mirror Section 4's symbol table; all times in seconds.

    Attributes
    ----------
    virtual_processes:
        ``N`` — application (virtual) process count.
    redundancy:
        ``r`` — real-valued redundancy degree in ``[1, ...)``.
    node_mtbf:
        ``theta`` — MTBF of one node.
    alpha:
        Communication/computation ratio of the application.
    base_time:
        ``t`` — failure-free, redundancy-free execution time.
    checkpoint_cost:
        ``c`` — wallclock cost of writing one coordinated checkpoint.
    restart_cost:
        ``R`` — cost of restarting from an image (read + respawn +
        coordination).
    interval_rule:
        ``"daly"`` (Eq. 15, default) or ``"young"``.
    checkpoint_interval:
        Optional explicit ``delta`` override; when set, the interval
        rule is ignored.
    exact_reliability:
        Use the exponential CDF instead of the paper's ``t/theta``
        linearisation in Eqs. 3-4-9.
    """

    virtual_processes: int
    redundancy: float
    node_mtbf: float
    alpha: float
    base_time: float
    checkpoint_cost: float
    restart_cost: float
    interval_rule: str = "daly"
    checkpoint_interval: Optional[float] = field(default=None)
    exact_reliability: bool = False

    def __post_init__(self) -> None:
        if self.interval_rule not in INTERVAL_RULES:
            raise ConfigurationError(
                f"interval_rule must be one of {INTERVAL_RULES}, got {self.interval_rule!r}"
            )
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ConfigurationError(
                f"checkpoint_interval override must be > 0, got {self.checkpoint_interval}"
            )

    def with_redundancy(self, redundancy: float) -> "CombinedModel":
        """Copy of this configuration at a different redundancy degree."""
        return replace(self, redundancy=redundancy)

    def with_processes(self, virtual_processes: int) -> "CombinedModel":
        """Copy of this configuration at a different process count."""
        return replace(self, virtual_processes=virtual_processes)

    def evaluate(self) -> CombinedResult:
        """Run the full Section 4.3 pipeline for this configuration.

        Raises
        ------
        ModelDivergence
            When the configuration has no finite expected completion
            time (see :func:`repro.models.checkpointing.total_time`).
        """
        _check_domain(self, bool)
        t_red, partition, r_sys, rate, mtbf, delta, t_lw, t_rr, total = _evaluate(self)
        total = _finite_total(total, rate, t_rr)
        rate, delta = float(rate), float(delta)
        breakdown = _breakdown(
            t_red, delta, self.checkpoint_cost, rate, self.restart_cost,
            float(t_lw), float(t_rr), total,
        )
        return CombinedResult(
            model=self,
            redundant_time=t_red,
            partition=_partition_record(
                self.virtual_processes, self.redundancy, partition
            ),
            system_reliability=float(r_sys),
            failure_rate=rate,
            system_mtbf=float(mtbf),
            checkpoint_interval=delta,
            total_time=breakdown.total_time,
            breakdown=breakdown,
        )

    def total_time_or_inf(self) -> float:
        """``evaluate().total_time``, with divergence mapped to ``inf``.

        Convenience for sweeps and optimizers that want to treat
        impossible configurations as infinitely expensive rather than
        exceptional.
        """
        try:
            return self.evaluate().total_time
        except ModelDivergence:
            return math.inf
