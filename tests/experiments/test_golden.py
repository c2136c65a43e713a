"""Golden outputs of the analytic experiments and the advisor.

Each file under ``golden/`` is the exact stdout of one ``repro-exp``
command.  The renders round every number, but a crossover count, a
table cell or a plot glyph still moves when the model's arithmetic
changes in the last place — so any change to Eqs. 1-15 that is meant
to be a pure refactor must leave these bytes alone.  Regenerate a file
only for an intended change of results, and say why in the commit.
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "table1": ["run", "table1"],
    "table2": ["run", "table2"],
    "table3": ["run", "table3"],
    "fig2": ["run", "fig2"],
    "figs4to6": ["run", "figs4to6"],
    "fig11": ["run", "fig11"],
    "fig12": ["run", "fig12"],
    "fig13": ["run", "fig13"],
    "fig14": ["run", "fig14"],
    "advise": [
        "advise", "--processes", "80000", "--mtbf", "5y", "--base-time", "128h",
    ],
}


def test_every_golden_file_has_a_command():
    assert {path.stem for path in GOLDEN.glob("*.txt")} == set(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden_bytes(name, capsys):
    assert main(COMMANDS[name]) == 0
    rendered = capsys.readouterr().out.encode("utf-8")
    assert rendered == (GOLDEN / f"{name}.txt").read_bytes()
