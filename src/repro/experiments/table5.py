"""Table 5 / Figure 10 — failure-free execution time vs redundancy.

The paper's separate experiment supporting observation (4): run the
application with *no* failures and *no* checkpointing at every degree
and compare against the Eq. 1 linear expectation
``t_Red = (1 - alpha) t + alpha t r`` with alpha = 0.2.  Their
observed times rise **super-linearly**, with the largest jump at the
very first step (1x → 1.25x): turning partial redundancy on at all
puts a replicated sphere on the critical path of every collective, so
the whole job immediately pays most of the next level's communication
amplification.  Our simulator reproduces that mechanism natively.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..errors import ConfigurationError
from ..models.redundancy import PAPER_REDUNDANCY_GRID, redundant_time
from ..obs import NULL_TRACER, ObsSession
from ..orchestration import run_failure_free_sweep
from .runner import ExperimentResult
from .table4 import ScaledSetup

#: Paper Table 5 [minutes]: observed and expected-linear rows.
PAPER_OBSERVED = (46, 55, 59, 61, 63, 70, 76, 78, 82)
PAPER_EXPECTED = (46, 48, 51, 53, 55, 58, 60, 62, 64)


def run(
    setup: Optional[ScaledSetup] = None,
    degrees: Sequence[float] = PAPER_REDUNDANCY_GRID,
    alpha: float = 0.2,
    workers: Optional[int] = None,
    progress=None,
    cell_timeout: Optional[float] = None,
    cell_retries: Optional[int] = None,
    obs: Optional[ObsSession] = None,
    store=None,
) -> ExperimentResult:
    """Run the failure-free sweep and compare to the linear expectation.

    ``workers`` (or ``REPRO_WORKERS``) runs the per-degree cells in a
    process pool; results are identical to the serial sweep.  ``obs``
    turns on tracing/metrics (see :mod:`repro.obs`); ``store`` makes
    the sweep resumable (see :mod:`repro.store`).
    """
    if len(degrees) < 2 or 1.0 not in degrees:
        raise ConfigurationError(
            "table5 needs at least two degrees including 1.0 (the Eq. 1 "
            f"base time and the step jumps need them), got {tuple(degrees)}"
        )
    setup = setup or ScaledSetup()
    base = setup.job_config()
    if obs is not None and obs.enabled:
        obs.stamp(
            "table5",
            params={"degrees": list(degrees), "alpha": alpha, "setup": setup},
            base_seed=setup.base_seed,
        )
        if obs.parts_dir is not None:
            base = replace(base, trace_dir=obs.parts_dir)
    cells = run_failure_free_sweep(
        base,
        degrees=list(degrees),
        workers=workers,
        progress=progress,
        cell_timeout=cell_timeout,
        cell_retries=cell_retries,
        tracer=obs.tracer if obs is not None else NULL_TRACER,
        metrics=obs.metrics if obs is not None else None,
        store=store,
    )
    if obs is not None and obs.enabled:
        obs.finalize(cells=len(cells))
    observed = {cell.redundancy: cell.report.total_time for cell in cells}
    base_time = observed[1.0]
    observed_minutes = [
        setup.sim_to_paper_minutes(observed[degree]) for degree in degrees
    ]
    expected_minutes = [
        setup.sim_to_paper_minutes(redundant_time(base_time, alpha, degree))
        for degree in degrees
    ]
    rows = [
        ["observed"] + [round(x, 1) for x in observed_minutes],
        ["expected linear"] + [round(x, 1) for x in expected_minutes],
    ]
    ordered = list(degrees)
    first_step_jump = (observed[ordered[1]] - observed[ordered[0]]) / observed[
        ordered[0]
    ]
    last_step_jump = (observed[ordered[-1]] - observed[ordered[-2]]) / observed[
        ordered[0]
    ]
    super_linear_somewhere = any(
        obs > exp * 1.001 for obs, exp in zip(observed_minutes, expected_minutes)
    )
    return ExperimentResult(
        experiment="table5",
        title="Table 5 / Fig. 10: failure-free execution time vs redundancy "
        "[paper-minutes equivalent]",
        headers=["series"] + [f"{d}x" for d in degrees],
        rows=rows,
        findings={
            "first_step_relative_jump": round(first_step_jump, 4),
            "last_step_relative_jump": round(last_step_jump, 4),
            "first_step_is_largest": first_step_jump >= last_step_jump,
            "observed_super_linear_somewhere": super_linear_somewhere,
            "paper_observed_minutes": list(PAPER_OBSERVED),
            "paper_expected_minutes": list(PAPER_EXPECTED),
        },
        notes=[
            "no failures, no checkpointing; pure redundancy overhead",
            "expected-linear row is Eq. 1 at alpha=0.2, as in the paper",
            "the 1x->1.25x jump exceeds later steps because one replicated "
            "sphere already gates every collective (critical-path effect)",
        ],
    )
