"""Vectorized evaluation of the combined model over parameter grids.

:class:`~repro.models.combined.CombinedModel` evaluates one scalar
configuration at a time; the sweeps behind Figures 4-6, 13 and 14 (and
any design-space exploration over ``(N, r, theta, delta)``) evaluate
thousands.  :func:`evaluate_grid` runs the whole Section 4.3 pipeline —
Eq. 1 (redundant time), Eqs. 5-8 (partition), Eq. 9 (reliability),
Eq. 10 (failure rate), Eq. 15/Young (interval) and Eq. 14 (total time)
— over NumPy arrays in one shot, broadcasting its inputs.

There is no second implementation here: :func:`evaluate_grid`
validates and broadcasts its inputs, then runs the same
:func:`~repro.models.combined._evaluate` pass that
``CombinedModel.evaluate()`` runs on one configuration.  Every cell is
therefore bit-identical to the scalar result, which
``tests/models/test_grid.py`` asserts with exact equality.

Divergent cells (where the scalar model raises
:class:`~repro.errors.ModelDivergence`) carry ``inf`` total time, the
same convention as ``CombinedModel.total_time_or_inf()``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from ..errors import ConfigurationError
from .combined import INTERVAL_RULES, CombinedModel, _check_domain, _evaluate

#: The numeric :class:`CombinedModel` fields, in evaluate_grid's order.
_NUMERIC_FIELDS = tuple(field.name for field in fields(CombinedModel))[:7]

__all__ = [
    "ModelGrid",
    "evaluate_grid",
    "evaluate_model_grid",
    "total_time_grid",
]


@dataclass(frozen=True)
class ModelGrid:
    """Array-valued results of one vectorized combined-model evaluation.

    All fields share one broadcast shape.  Cells where the model
    diverges (no finite completion time) hold ``inf`` in ``total_time``
    and ``nan`` in ``checkpoint_interval``; ``diverged`` masks them.
    """

    #: Eq. 1 — execution time with redundant communication.
    redundant_time: np.ndarray
    #: Eq. 8 — physical processes consumed.
    total_processes: np.ndarray
    #: Eq. 9 — probability the system survives one ``t_Red`` run.
    system_reliability: np.ndarray
    #: Eq. 10 — system failure rate (failures per second).
    failure_rate: np.ndarray
    #: Eq. 10 — system MTBF (``inf`` when failure-free).
    system_mtbf: np.ndarray
    #: Eq. 15 (or Young / override) — checkpoint interval used.
    checkpoint_interval: np.ndarray
    #: Eq. 14 — expected total wallclock time (``inf`` where diverged).
    total_time: np.ndarray

    @property
    def diverged(self) -> np.ndarray:
        """Boolean mask of cells with no finite completion time."""
        return ~np.isfinite(self.total_time)

    @property
    def expected_checkpoints(self) -> np.ndarray:
        """Expected checkpoints taken, ``t_Red / delta``.

        Diverged cells (whose interval is ``nan``) report ``inf``
        explicitly — the job restarts forever — rather than silently
        propagating ``nan`` into downstream aggregations.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            counts = self.redundant_time / self.checkpoint_interval
        return np.where(self.diverged, np.inf, counts)

    @property
    def expected_failures(self) -> np.ndarray:
        """Eq. 11 — ``T_total * lambda`` (``inf``/``nan`` where diverged)."""
        return self.total_time * self.failure_rate

    @property
    def node_seconds(self) -> np.ndarray:
        """Resource usage: physical processes x wallclock time."""
        return self.total_processes * self.total_time


def evaluate_grid(
    virtual_processes,
    redundancy,
    node_mtbf,
    alpha,
    base_time,
    checkpoint_cost,
    restart_cost,
    interval_rule: str = "daly",
    checkpoint_interval=None,
    exact_reliability: bool = False,
) -> ModelGrid:
    """Evaluate the combined model over broadcast parameter arrays.

    Every parameter accepts a scalar or an array; arrays broadcast
    against each other with normal NumPy rules (e.g. a column of
    degrees against a row of process counts yields the full 2-D grid).
    """
    if interval_rule not in INTERVAL_RULES:
        raise ConfigurationError(
            f"interval_rule must be one of {INTERVAL_RULES}, got {interval_rule!r}"
        )
    values = (
        virtual_processes, redundancy, node_mtbf, alpha, base_time,
        checkpoint_cost, restart_cost,
        np.nan if checkpoint_interval is None else checkpoint_interval,
    )
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in values))
    model = SimpleNamespace(
        **dict(zip(_NUMERIC_FIELDS, arrays)),
        interval_rule=interval_rule,
        checkpoint_interval=None if checkpoint_interval is None else arrays[-1],
        exact_reliability=exact_reliability,
    )
    _check_domain(model, np.all)
    if checkpoint_interval is not None and not np.all(arrays[-1] > 0):
        raise ConfigurationError("checkpoint_interval override must be > 0")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t_red, partition, r_sys, rate, mtbf, delta, _, _, total = _evaluate(model)
    interval = np.where(rate == np.inf, np.nan, delta)
    return ModelGrid(
        *map(np.asarray, (t_red, partition[-1], r_sys, rate, mtbf, interval, total))
    )


def evaluate_model_grid(model: CombinedModel, **axes) -> ModelGrid:
    """Evaluate ``model`` with some fields replaced by arrays.

    ``axes`` maps :class:`~repro.models.combined.CombinedModel` field
    names (``virtual_processes``, ``redundancy``, ``node_mtbf``,
    ``alpha``, ``base_time``, ``checkpoint_cost``, ``restart_cost``,
    ``checkpoint_interval``) to scalars or arrays; everything else is
    taken from ``model``.
    """
    params = {
        "virtual_processes": model.virtual_processes,
        "redundancy": model.redundancy,
        "node_mtbf": model.node_mtbf,
        "alpha": model.alpha,
        "base_time": model.base_time,
        "checkpoint_cost": model.checkpoint_cost,
        "restart_cost": model.restart_cost,
        "checkpoint_interval": model.checkpoint_interval,
    }
    unknown = set(axes) - set(params)
    if unknown:
        raise ConfigurationError(f"unknown model grid axes: {sorted(unknown)}")
    params.update(axes)
    return evaluate_grid(
        interval_rule=model.interval_rule,
        exact_reliability=model.exact_reliability,
        **params,
    )


def total_time_grid(
    model: CombinedModel,
    processes=None,
    redundancy=None,
) -> np.ndarray:
    """Total completion times over process/redundancy axes (seconds).

    The fast-path equivalent of looping
    ``model.with_processes(n).with_redundancy(r).total_time_or_inf()``;
    divergent cells are ``inf``.
    """
    axes = {}
    if processes is not None:
        axes["virtual_processes"] = processes
    if redundancy is not None:
        axes["redundancy"] = redundancy
    return evaluate_model_grid(model, **axes).total_time
