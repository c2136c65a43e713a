"""Tests for the vectorized combined-model grid (models/grid.py).

The grid runs the same Eqs. 1-15 code as ``CombinedModel.evaluate()``,
so the core property is exact: every field of every cell has the same
bits as the scalar answer, with ``inf`` and ``nan`` in the same cells
(a divergent configuration maps to ``inf`` total time).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.errors import ConfigurationError, ModelDivergence
from repro.models import CombinedModel, PAPER_REDUNDANCY_GRID
from repro.models.checkpointing import daly_interval, young_interval
from repro.models.grid import evaluate_grid, evaluate_model_grid, total_time_grid
from repro.models.redundancy import (
    partition_processes,
    redundant_time,
    system_failure_rate,
    system_mtbf,
    system_reliability,
)


def reference_model(**overrides):
    params = dict(
        virtual_processes=50_000,
        redundancy=1.0,
        node_mtbf=units.years(5),
        alpha=0.2,
        base_time=units.hours(128),
        checkpoint_cost=units.minutes(8),
        restart_cost=units.minutes(12),
    )
    params.update(overrides)
    return CombinedModel(**params)


def same_bits(actual, expected) -> bool:
    """Equal as float64 bit patterns (so ``-0.0 != 0.0`` and nan == nan)."""
    return float(actual).hex() == float(expected).hex()


def scalar_fields(model: CombinedModel) -> dict:
    """The :class:`ModelGrid` fields of one model, via the scalar API.

    ``evaluate()`` answers every field when the model converges.  When
    it diverges, the fields up to Eq. 10 come from the public scalar
    functions, the interval from the rule clamped to ``t_Red`` (``nan``
    where the rate is infinite), and the total time is ``inf``.
    """
    t_red = redundant_time(model.base_time, model.alpha, model.redundancy)
    args = (model.virtual_processes, model.redundancy, t_red, model.node_mtbf)
    exact = model.exact_reliability
    mtbf = system_mtbf(*args, exact=exact)
    if model.checkpoint_interval is not None:
        interval = model.checkpoint_interval
    elif mtbf == 0.0:
        interval = math.nan
    else:
        rule = young_interval if model.interval_rule == "young" else daly_interval
        interval = min(rule(model.checkpoint_cost, mtbf), t_red)
    fields = {
        "redundant_time": t_red,
        "total_processes": partition_processes(
            model.virtual_processes, model.redundancy
        ).total_processes,
        "system_reliability": system_reliability(*args, exact=exact),
        "failure_rate": system_failure_rate(*args, exact=exact),
        "system_mtbf": mtbf,
        "checkpoint_interval": interval,
        "total_time": math.inf,
    }
    try:
        result = model.evaluate()
    except ModelDivergence:
        return fields
    evaluated = {name: getattr(result, name) for name in fields}
    # The public functions and the pipeline agree bit for bit too.
    for name in fields.keys() - {"total_time"}:
        assert same_bits(evaluated[name], fields[name]), name
    return evaluated


def assert_cell_matches(grid, index, model: CombinedModel):
    for name, expected in scalar_fields(model).items():
        actual = getattr(grid, name)[index]
        assert same_bits(actual, expected), (name, actual, expected)


def assert_equivalent(model: CombinedModel):
    """A one-cell ``evaluate_grid`` equals the scalar model exactly."""
    grid = evaluate_grid(
        model.virtual_processes,
        model.redundancy,
        model.node_mtbf,
        model.alpha,
        model.base_time,
        model.checkpoint_cost,
        model.restart_cost,
        interval_rule=model.interval_rule,
        checkpoint_interval=model.checkpoint_interval,
        exact_reliability=model.exact_reliability,
    )
    assert_cell_matches(grid, (), model)


#: One random configuration, in CombinedModel's field order.
configurations = st.tuples(
    st.integers(min_value=1, max_value=5_000_000),
    st.one_of(
        st.floats(min_value=1.0, max_value=3.0),
        st.sampled_from(PAPER_REDUNDANCY_GRID),
    ),
    st.floats(min_value=1e3, max_value=1e9),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.0, max_value=1e6),
    st.floats(min_value=0.1, max_value=5e3),
    st.floats(min_value=0.0, max_value=5e3),
)


class TestScalarEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(
        config=configurations,
        rule=st.sampled_from(("daly", "young")),
        exact=st.booleans(),
    )
    def test_randomized_configurations(self, config, rule, exact):
        assert_equivalent(
            CombinedModel(*config, interval_rule=rule, exact_reliability=exact)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        configs=st.lists(configurations, min_size=1, max_size=12),
        rule=st.sampled_from(("daly", "young")),
        exact=st.booleans(),
    )
    def test_every_cell_of_a_mixed_grid(self, configs, rule, exact):
        # One grid holding many configurations at once: its cells mix
        # replication levels, divergent and failure-free cells, and each
        # must still equal its own scalar evaluation.
        columns = [np.array(column, dtype=np.float64) for column in zip(*configs)]
        grid = evaluate_grid(*columns, interval_rule=rule, exact_reliability=exact)
        for index, config in enumerate(configs):
            assert_cell_matches(
                grid,
                index,
                CombinedModel(*config, interval_rule=rule, exact_reliability=exact),
            )

    def test_paper_reference_point(self):
        assert_equivalent(reference_model(redundancy=2.0))

    def test_explicit_interval_override(self):
        assert_equivalent(reference_model(checkpoint_interval=units.hours(1)))

    def test_failure_free_limit(self):
        # Enormous MTBF: linearised rate rounds to zero -> failure-free path.
        assert_equivalent(
            reference_model(virtual_processes=1, node_mtbf=1e18, redundancy=2.0)
        )


class TestFailureFreeBoundary:
    """Continuity at the rate-underflow boundary.

    When the linearised system failure rate underflows to exactly 0.0
    the model takes the failure-free interval ``delta = t_Red``; an
    ULP-nonzero rate gives a huge Daly interval.  Clamping the rule
    interval to ``min(rule_delta, t_Red)`` makes the two sides agree,
    so ``T_total`` has no jump of one checkpoint cost there.
    """

    #: The hypothesis falsifying example that exposed the bug (pinned
    #: deterministically; scalar used to give 2.2265625, grid 1.2265625).
    PINNED = dict(
        virtual_processes=32,
        redundancy=2.8125,
        node_mtbf=435560442.0,
        alpha=0.125,
        base_time=1.0,
        checkpoint_cost=1.0,
        restart_cost=0.0,
        interval_rule="daly",
        exact_reliability=False,
    )

    def test_pinned_falsifying_example(self):
        assert_equivalent(CombinedModel(**self.PINNED))

    def test_pinned_example_takes_clamped_interval(self):
        result = CombinedModel(**self.PINNED).evaluate()
        # One nominal checkpoint, not a huge unclamped Daly interval.
        assert result.checkpoint_interval == result.redundant_time
        assert result.total_time == pytest.approx(
            result.redundant_time + self.PINNED["checkpoint_cost"],
            rel=1e-9,
        )

    @staticmethod
    def _bracket_boundary(rate_of, lo=1e3, hi=1e300):
        """Bisect node_mtbf to the exact rate-underflow boundary.

        Returns ``(theta_lo, theta_hi)`` with rate(theta_lo) > 0,
        rate(theta_hi) == 0 and the two thetas adjacent to ~1e-13
        relative — any model discontinuity at the boundary shows up as
        a jump between the two total times.
        """
        assert rate_of(lo) > 0.0
        assert rate_of(hi) == 0.0
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if rate_of(mid) > 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-13 * lo:
                break
        return lo, hi

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=100_000),
        r=st.one_of(
            st.floats(min_value=1.0, max_value=3.0),
            st.sampled_from(PAPER_REDUNDANCY_GRID),
        ),
        alpha=st.floats(min_value=0.0, max_value=1.0),
        t=st.floats(min_value=1.0, max_value=1e4),
        c=st.floats(min_value=0.1, max_value=1e3),
        rc=st.floats(min_value=0.0, max_value=1e3),
        rule=st.sampled_from(("daly", "young")),
    )
    def test_total_time_continuous_in_node_mtbf(self, n, r, alpha, t, c, rc, rule):
        def make_model(theta):
            return CombinedModel(
                virtual_processes=n,
                redundancy=r,
                node_mtbf=theta,
                alpha=alpha,
                base_time=t,
                checkpoint_cost=c,
                restart_cost=rc,
                interval_rule=rule,
            )

        t_red = redundant_time(t, alpha, r)

        def rate_of(theta):
            # Probe the Eq. 10 rate alone: the full pipeline diverges
            # far below the boundary, where we only bisect through.
            return system_failure_rate(n, r, t_red, theta)

        theta_lo, theta_hi = self._bracket_boundary(rate_of)
        below = make_model(theta_lo).evaluate().total_time
        above = make_model(theta_hi).evaluate().total_time
        # Continuity: pre-fix the jump here was a full checkpoint cost.
        assert below == pytest.approx(above, rel=1e-9)
        # The grid path agrees with the scalar on both sides.
        thetas = np.array([theta_lo, theta_hi])
        grid = evaluate_grid(n, r, thetas, alpha, t, c, rc, interval_rule=rule)
        assert same_bits(grid.total_time[0], below)
        assert same_bits(grid.total_time[1], above)

    def test_grid_continuous_across_dense_theta_sweep(self):
        # A dense sweep spanning the pinned example's boundary: adjacent
        # cells must never again fork by ~one checkpoint cost.
        thetas = np.geomspace(1e7, 1e10, 400)
        grid = evaluate_grid(32, 2.8125, thetas, 0.125, 1.0, 1.0, 0.0)
        total = grid.total_time
        assert np.all(np.isfinite(total))
        jumps = np.abs(np.diff(total))
        assert float(jumps.max()) < 1e-3  # a full checkpoint cost is 1.0


class TestPaperParameterCells:
    """Grid-vs-scalar agreement over the paper's Table 4/5 cells."""

    #: Table 4 testbed: NPB CG, 128 processes, 46 min failure-free,
    #: alpha ~ 0.2, c = 120 s, R = 500 s, node MTBF 6-30 h.
    TABLE4_MTBF_HOURS = (6.0, 12.0, 18.0, 24.0, 30.0)

    def test_table4_cells_agree(self):
        for hours in self.TABLE4_MTBF_HOURS:
            for degree in PAPER_REDUNDANCY_GRID:
                assert_equivalent(
                    CombinedModel(
                        virtual_processes=128,
                        redundancy=degree,
                        node_mtbf=hours * 3600.0,
                        alpha=0.2,
                        base_time=46.0 * 60.0,
                        checkpoint_cost=120.0,
                        restart_cost=500.0,
                    )
                )

    def test_table5_failure_free_cells_agree(self):
        # Table 5 runs with no injected failures: model it as an
        # effectively failure-free node MTBF at every paper degree.
        for degree in PAPER_REDUNDANCY_GRID:
            assert_equivalent(
                CombinedModel(
                    virtual_processes=128,
                    redundancy=degree,
                    node_mtbf=1e18,
                    alpha=0.2,
                    base_time=46.0 * 60.0,
                    checkpoint_cost=120.0,
                    restart_cost=500.0,
                )
            )

    def test_diverged_cells_report_inf_expected_checkpoints(self):
        doomed = reference_model(
            virtual_processes=1_000_000, node_mtbf=units.days(120)
        )
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # silent NaN came via RuntimeWarning
            grid = evaluate_model_grid(doomed, redundancy=np.array([1.0, 3.0]))
            counts = grid.expected_checkpoints
        assert math.isinf(counts[0])
        assert not np.isnan(counts).any()
        assert math.isfinite(counts[1])


class TestGridSemantics:
    def test_broadcast_shape(self):
        grid = evaluate_model_grid(
            reference_model(),
            virtual_processes=np.array([100.0, 1000.0, 10_000.0]),
            redundancy=np.asarray(PAPER_REDUNDANCY_GRID)[:, None],
        )
        assert grid.total_time.shape == (len(PAPER_REDUNDANCY_GRID), 3)

    def test_divergence_marked_inf(self):
        doomed = reference_model(
            virtual_processes=1_000_000, node_mtbf=units.days(120)
        )
        grid = evaluate_model_grid(doomed, redundancy=np.array([1.0, 3.0]))
        assert math.isinf(grid.total_time[0])
        assert bool(grid.diverged[0])
        assert math.isfinite(grid.total_time[1])
        assert not bool(grid.diverged[1])
        # Matches the scalar convention exactly.
        assert math.isinf(doomed.total_time_or_inf())

    def test_total_time_grid_matches_with_helpers(self):
        model = reference_model()
        counts = [100, 1_000, 10_000]
        times = total_time_grid(model, processes=np.asarray(counts, dtype=float))
        for count, vector_time in zip(counts, times):
            scalar_time = model.with_processes(count).total_time_or_inf()
            assert same_bits(vector_time, scalar_time)

    def test_expected_checkpoints_property(self):
        model = reference_model(redundancy=2.0)
        grid = evaluate_model_grid(model)
        result = model.evaluate()
        assert same_bits(grid.expected_checkpoints, result.expected_checkpoints)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            evaluate_model_grid(reference_model(), shadow_nodes=np.array([1.0]))

    def test_domain_validation(self):
        with pytest.raises(ConfigurationError):
            evaluate_grid(0, 1.0, 1e6, 0.2, 1e3, 10.0, 10.0)
        with pytest.raises(ConfigurationError):
            evaluate_grid(10, 0.5, 1e6, 0.2, 1e3, 10.0, 10.0)
        with pytest.raises(ConfigurationError):
            evaluate_grid(10, 1.0, 1e6, 1.5, 1e3, 10.0, 10.0)
        with pytest.raises(ConfigurationError):
            evaluate_grid(10, 1.0, 1e6, 0.2, 1e3, 10.0, 10.0, interval_rule="magic")
