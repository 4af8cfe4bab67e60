"""Smoke tests that the shipped examples run end to end.

Each example is executed in-process (via ``runpy``) with arguments that keep
the runtime to a few seconds, and its stdout is checked for the headline
output it promises.  This keeps the examples from rotting as the library
evolves.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _run_example(script: str, argv, capsys) -> str:
    path = EXAMPLES_DIR / script
    assert path.exists(), f"example {script} is missing"
    old_argv = sys.argv
    sys.argv = [str(path)] + list(argv)
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        output = _run_example("quickstart.py", [], capsys)
        assert "Design points available" in output
        assert "REAP schedules" in output
        assert "DP4" in output and "DP5" in output

    def test_runtime_alpha_adaptation(self, capsys):
        output = _run_example("runtime_alpha_adaptation.py", [], capsys)
        assert "runtime preference changes" in output
        assert "Day summary" in output

    def test_har_design_space_small(self, capsys):
        output = _run_example(
            "har_design_space.py", ["--windows", "200", "--users", "4"], capsys
        )
        assert "Characterised design points" in output
        assert "Pareto-optimal subset" in output

    def test_closed_loop_forecasting(self, capsys):
        output = _run_example(
            "closed_loop_forecasting.py", ["--hours", "48"], capsys
        )
        assert "Closed-loop REAP" in output
        assert "Horizon24-persistence" in output
        assert "MPC24-noisy" in output
        assert "Persistence forecast error" in output
        assert "48-hour summary" in output

    def test_service_demo(self, capsys):
        output = _run_example("service_demo.py", ["--requests", "16"], capsys)
        assert "Allocation service listening" in output
        assert "served allocations" in output
        assert "16/16 answers served from the LRU cache" in output

    def test_solar_month_study(self, capsys):
        output = _run_example("solar_month_study.py", ["--month", "9"], capsys)
        assert "Month-long campaign" in output
        assert "REAP improvement over the static baselines" in output
