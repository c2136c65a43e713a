"""Checkpoint/restart cost model (Eqs. 12-15 of the paper).

The application alternates work segments of length ``delta`` with
checkpoint phases of length ``c``.  Failures arrive with system rate
``lambda = 1/Theta`` and can strike at any point — including during a
checkpoint or a restart (model assumption 5).  The model yields:

* :func:`expected_lost_work` — Eq. 12, the expected work lost when a
  failure strikes somewhere in a ``delta + c`` segment;
* :func:`expected_restart_rework` — Eq. 13, the expected duration of the
  combined restart + rework phase (itself failure-prone);
* :func:`total_time` — Eq. 14, the fixed point
  ``T_total = (t + t c / delta) / (1 - lambda * t_RR)``;
* :func:`daly_interval` — Eq. 15, Daly's higher-order optimum
  checkpoint interval, and :func:`young_interval` for the classic
  first-order rule;
* :func:`time_breakdown` — the work / checkpoint / recompute / restart
  shares reported in the paper's Tables 2 and 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, ModelDivergence
from .reliability import _where


def _validate_positive(name: str, value: float) -> None:
    if value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")


def _validate_non_negative(name: str, value: float) -> None:
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")


def segment_failure_pdf(t: float, delta: float, checkpoint_cost: float, mtbf: float) -> float:
    """Density of the failure position within a work+checkpoint segment.

    The paper folds the global exponential failure density into one
    segment of length ``delta_c = delta + checkpoint_cost``:

    ``p(t) = exp(-t/Theta) / (Theta * (1 - exp(-delta_c/Theta)))``

    for ``0 <= t <= delta_c``.  Integrates to 1 over the segment.
    """
    _validate_positive("delta", delta)
    _validate_non_negative("checkpoint_cost", checkpoint_cost)
    _validate_positive("mtbf", mtbf)
    delta_c = delta + checkpoint_cost
    if not 0.0 <= t <= delta_c:
        raise ConfigurationError(f"t must lie in [0, {delta_c}], got {t}")
    denominator = -math.expm1(-delta_c / mtbf)
    return math.exp(-t / mtbf) / (mtbf * denominator)


def _lost_work(delta, checkpoint_cost, mtbf):
    """Eq. 12 for scalars or arrays, clamped to ``[0, delta]``."""
    delta_c = delta + checkpoint_cost
    denominator = -np.expm1(-delta_c / mtbf)
    numerator = -mtbf * np.expm1(-delta / mtbf) - delta * np.exp(-delta_c / mtbf)
    # Enforce the mathematical bound numerically: for delta << mtbf the
    # two terms of the numerator cancel to machine precision and can
    # leave a tiny negative residue, which downstream validation (and
    # Eq. 13's exp/expm1 calls) must never see.
    lost = numerator / denominator
    lost = _where(lost < 0.0, 0.0, lost)
    return _where(delta < lost, delta, lost)


def expected_lost_work(delta: float, checkpoint_cost: float, mtbf: float) -> float:
    """Expected work lost to one failure, ``t_lw`` (Eq. 12).

    A failure at offset ``t <= delta`` into the segment loses ``t`` of
    work; a failure during the checkpoint phase loses the full
    ``delta``.  Integrating against :func:`segment_failure_pdf`:

    ``t_lw = [Theta - Theta e^(-delta/Theta) - delta e^(-delta_c/Theta)]
    / (1 - e^(-delta_c/Theta))``

    Always satisfies ``0 <= t_lw <= delta``.
    """
    _validate_positive("delta", delta)
    _validate_non_negative("checkpoint_cost", checkpoint_cost)
    _validate_positive("mtbf", mtbf)
    return float(_lost_work(delta, checkpoint_cost, mtbf))


def _restart_rework(lost_work, restart_cost, mtbf):
    """Eq. 13 for scalars or arrays (0 for an empty phase)."""
    x = restart_cost + lost_work
    survive = np.exp(-x / mtbf)
    fail = -np.expm1(-x / mtbf)
    truncated_expectation = mtbf - survive * (x + mtbf)
    return _where(x == 0.0, 0.0, fail * truncated_expectation + survive * x)


def expected_restart_rework(
    lost_work: float, restart_cost: float, mtbf: float
) -> float:
    """Expected duration of the restart + rework phase, ``t_RR`` (Eq. 13).

    The phase nominally lasts ``x = R + t_lw`` but is itself exposed to
    failures.  The paper composes the phase duration as

    ``t_RR = (1 - e^(-x/Theta)) * [Theta - e^(-x/Theta) (x + Theta)]
    + e^(-x/Theta) * x``

    i.e. (probability of failing inside the phase) x (truncated expected
    failure time) + (probability of surviving the phase) x (full phase
    length).  We implement the formula exactly as printed — note it uses
    the *unconditional* truncated expectation, which slightly
    underweights early failures; this is the paper's model, and the
    model-vs-simulation benchmarks quantify the residual.

    Always satisfies ``0 <= t_RR <= R + t_lw``.
    """
    _validate_non_negative("lost_work", lost_work)
    _validate_non_negative("restart_cost", restart_cost)
    _validate_positive("mtbf", mtbf)
    return float(_restart_rework(lost_work, restart_cost, mtbf))


def _completion(work, delta, checkpoint_cost, failure_rate, restart_cost):
    """Eqs. 12-14 at interval ``delta``: ``(t_lw, t_RR, T_total)``.

    Scalars or arrays.  This is the model's one divergence verdict:
    ``T_total`` is ``inf`` where the failure rate is infinite (``R_sys``
    is 0, the linearised ``t_Red >= theta`` case) or where
    ``lambda * t_RR >= 1``.  At a zero rate the loss term vanishes and
    ``T_total`` is exactly the failure-free ``t + t c / delta``;
    ``t_lw`` and ``t_RR`` are then placeholders at ``Theta = 1``.
    """
    live = (failure_rate > 0.0) & (failure_rate < np.inf)
    mtbf = 1.0 / _where(live, failure_rate, 1.0)
    lost = _lost_work(delta, checkpoint_cost, mtbf)
    rework = _restart_rework(lost, restart_cost, mtbf)
    # lambda * t_RR: nothing at a zero rate, everything at an infinite one.
    loss = _where(
        failure_rate < np.inf, _where(live, failure_rate, 0.0) * rework, np.inf
    )
    stuck = loss >= 1.0
    useful = work + work * checkpoint_cost / delta
    total = useful / (1.0 - _where(stuck, 0.0, loss))
    return lost, rework, _where(stuck, np.inf, total)


def _finite_total(total, failure_rate, restart_rework) -> float:
    """``T_total`` as a float, or :class:`ModelDivergence` saying why not."""
    if total < math.inf:
        return float(total)
    if failure_rate == math.inf:
        raise ModelDivergence(
            "system failure rate diverged (t_Red >= node MTBF under the "
            "linearised model); use exact_reliability=True or reduce scale"
        )
    raise ModelDivergence(
        f"lambda * t_RR = {failure_rate * restart_rework:.3f} >= 1; "
        "no finite completion time"
    )


def _checked_completion(base_time, delta, checkpoint_cost, failure_rate, restart_cost):
    """Validated scalar :func:`_completion`; raises on divergence."""
    _validate_non_negative("base_time", base_time)
    _validate_positive("delta", delta)
    _validate_non_negative("checkpoint_cost", checkpoint_cost)
    _validate_non_negative("failure_rate", failure_rate)
    _validate_non_negative("restart_cost", restart_cost)
    lost, rework, total = _completion(
        base_time, delta, checkpoint_cost, failure_rate, restart_cost
    )
    return float(lost), float(rework), _finite_total(total, failure_rate, rework)


def total_time(
    base_time: float,
    delta: float,
    checkpoint_cost: float,
    failure_rate: float,
    restart_cost: float,
) -> float:
    """Total completion time ``T_total`` (Eq. 14).

    ``T_total = (t + t c / delta) / (1 - lambda t_RR)``

    with ``t_RR`` from Eq. 13 evaluated at the system MTBF
    ``Theta = 1/lambda``.

    Raises
    ------
    ModelDivergence
        When ``lambda * t_RR >= 1``: the expected repair time per
        failure exceeds the time between failures, so the job makes no
        expected forward progress.
    """
    return _checked_completion(
        base_time, delta, checkpoint_cost, failure_rate, restart_cost
    )[2]


def _young(checkpoint_cost, mtbf):
    return np.sqrt(2.0 * checkpoint_cost * mtbf)


def _daly(checkpoint_cost, mtbf):
    """Eq. 15 for scalars or arrays; ``inf`` at an infinite MTBF."""
    ratio = checkpoint_cost / (2.0 * mtbf)
    correction = 1.0 + np.sqrt(ratio) / 3.0 + ratio / 9.0
    expansion = _young(checkpoint_cost, mtbf) * correction - checkpoint_cost
    return _where(ratio >= 1.0, mtbf, expansion)


def young_interval(checkpoint_cost: float, mtbf: float) -> float:
    """Young's first-order optimum interval ``sqrt(2 c Theta)`` [Young 1974]."""
    _validate_positive("checkpoint_cost", checkpoint_cost)
    _validate_positive("mtbf", mtbf)
    return float(_young(checkpoint_cost, mtbf))


def daly_interval(checkpoint_cost: float, mtbf: float) -> float:
    """Daly's higher-order optimum checkpoint interval (Eq. 15).

    ``delta_opt = sqrt(2 c Theta) [1 + (1/3) sqrt(c / 2Theta)
    + (1/9)(c / 2Theta)] - c``   for ``c < 2 Theta``,

    and ``delta_opt = Theta`` once the checkpoint cost reaches twice
    the MTBF (Daly 2006's guard for the regime where the expansion is
    invalid).
    """
    _validate_positive("checkpoint_cost", checkpoint_cost)
    _validate_positive("mtbf", mtbf)
    return float(_daly(checkpoint_cost, mtbf))


@dataclass(frozen=True)
class TimeBreakdown:
    """Where the wallclock time of a protected job goes (Tables 2-3).

    Fractions sum to 1 (up to float rounding).  ``recompute`` is the
    rework share, ``restart`` the image-reload/respawn share; the paper
    reports both separately even though Eq. 13 folds them into one
    phase — we split ``t_RR`` proportionally to its two inputs.
    """

    total_time: float
    work: float
    checkpoint: float
    recompute: float
    restart: float
    checkpoints_taken: float
    expected_failures: float

    @property
    def useful_fraction(self) -> float:
        """Alias for the work share (the headline number in Table 2)."""
        return self.work


def time_breakdown(
    base_time: float,
    delta: float,
    checkpoint_cost: float,
    failure_rate: float,
    restart_cost: float,
) -> TimeBreakdown:
    """Work / checkpoint / recompute / restart shares of ``T_total``.

    Mirrors the Sandia-study presentation the paper reprints as Tables
    2 and 3: each share is a fraction of the total wallclock time.
    """
    arguments = (base_time, delta, checkpoint_cost, failure_rate, restart_cost)
    return _breakdown(*arguments, *_checked_completion(*arguments))


def _breakdown(
    base_time, delta, checkpoint_cost, failure_rate, restart_cost, t_lw, t_rr, t_total
) -> TimeBreakdown:
    """The shares of one finite scalar :func:`_completion`."""
    work_share = base_time / t_total
    checkpoint_share = (base_time * checkpoint_cost / delta) / t_total
    if failure_rate == 0.0:
        recompute_share = 0.0
        restart_share = 0.0
        failures = 0.0
    else:
        failures = t_total * failure_rate
        rr_share = failure_rate * t_rr
        phase = restart_cost + t_lw
        if phase > 0.0:
            recompute_share = rr_share * (t_lw / phase)
            restart_share = rr_share * (restart_cost / phase)
        else:
            recompute_share = 0.0
            restart_share = 0.0
    return TimeBreakdown(
        total_time=t_total,
        work=work_share,
        checkpoint=checkpoint_share,
        recompute=recompute_share,
        restart=restart_share,
        checkpoints_taken=base_time / delta,
        expected_failures=failures,
    )
