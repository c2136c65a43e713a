"""Smoke tests for the simulation-backed experiments at tiny scale.

The full campaigns live in ``benchmarks/``; these tests run
miniaturised grids so the simulation experiment plumbing (scaling,
pivoting, findings, plots) stays covered by the fast suite.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import run_experiment
from repro.experiments.table4 import ScaledSetup


@pytest.fixture(scope="module")
def tiny_setup():
    return ScaledSetup(
        virtual_processes=4,
        steps=30,
        compute_seconds=0.03,
        message_bytes=32 * 1024,
        expected_base_time=1.2,
    )


class TestTable4Tiny:
    @pytest.fixture(scope="class")
    def result(self, tiny_setup):
        return run_experiment(
            "table4",
            setup=tiny_setup,
            mtbf_hours=(6.0, 30.0),
            degrees=(1.0, 2.0, 3.0),
        )

    def test_grid_shape(self, result):
        assert len(result.rows) == 2
        assert result.headers == ["MTBF", "1.0x", "2.0x", "3.0x"]

    def test_cells_are_positive_minutes(self, result):
        for row in result.rows:
            for cell in row[1:]:
                assert float(cell) > 0

    def test_findings_present(self, result):
        assert set(result.findings["argmin_degree_per_mtbf"]) == {"6h", "30h"}

    def test_plot_attached(self, result):
        assert "Fig. 8" in result.plot and "Fig. 9" in result.plot

    def test_redundancy_beats_plain_at_6h(self, result):
        row = result.rows[0]
        assert min(float(row[2]), float(row[3])) < float(row[1])


class TestTable5Tiny:
    @pytest.fixture(scope="class")
    def result(self, tiny_setup):
        return run_experiment(
            "table5", setup=tiny_setup, degrees=(1.0, 1.25, 2.0, 3.0)
        )

    def test_two_series(self, result):
        assert [row[0] for row in result.rows] == ["observed", "expected linear"]

    def test_observed_monotone(self, result):
        observed = [float(x) for x in result.rows[0][1:]]
        assert observed == sorted(observed)

    def test_first_jump_positive(self, result):
        assert result.findings["first_step_relative_jump"] > 0


class TestTable4QuickKeepsExplicitGrid:
    def test_quick_only_fills_unset_axes(self, tiny_setup):
        # quick=True fills only the axes the caller left unset.
        result = run_experiment(
            "table4",
            setup=tiny_setup,
            quick=True,
            mtbf_hours=(12.0,),
            degrees=(1.0, 2.0),
        )
        assert [row[0] for row in result.rows] == ["12 hrs"]
        assert result.headers == ["MTBF", "1.0x", "2.0x"]

    def test_quick_default_degrees_with_explicit_mtbf(self, tiny_setup):
        result = run_experiment(
            "table4", setup=tiny_setup, quick=True, mtbf_hours=(30.0,)
        )
        assert result.headers == ["MTBF", "1.0x", "1.5x", "2.0x", "2.5x", "3.0x"]


class TestTable5RejectsUnusableDegrees:
    @pytest.mark.parametrize("degrees", [(1.0,), (2.0,), (1.5, 2.0), ()])
    def test_rejected_before_any_cell_runs(self, tiny_setup, degrees):
        # One degree has no step jump and a sweep without 1.0 no Eq. 1
        # base time; both must fail before the sweep spends any time.
        progress = []
        with pytest.raises(ConfigurationError, match="1.0"):
            run_experiment(
                "table5", setup=tiny_setup, degrees=degrees,
                progress=progress.append,
            )
        assert progress == []

    def test_cli_reports_the_error(self, capsys):
        from repro.cli import main

        assert main(["run", "table5", "degrees=(1.0,)"]) == 2
        assert "table5 needs at least two degrees" in capsys.readouterr().err


class TestFig12Tiny:
    def test_fit_statistics_produced(self, tiny_setup):
        result = run_experiment(
            "fig12",
            setup=tiny_setup,
            mtbf_hours=(6.0, 30.0),
            degrees=(1.0, 2.0, 3.0),
        )
        assert -1.0 <= result.findings["pearson_correlation"] <= 1.0
        assert result.findings["mean_abs_pct_error"] >= 0.0
        assert len(result.rows) == 6


class TestQuickMode:
    def test_table4_quick_flag(self, tiny_setup):
        result = run_experiment("table4", setup=tiny_setup, quick=True)
        assert len(result.rows) == 3  # 3 MTBFs
        assert len(result.rows[0]) == 6  # label + 5 degrees
