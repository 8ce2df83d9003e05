"""Smoke runs of the solver tools that pytest does not collect.

``pnp_sweep.py`` and ``p3p_stress.py`` are run by hand on two checkouts to
compare solvers; here each runs a few problems and compares the file it
wrote with itself, so a change that breaks a tool fails Tier-1.
"""

import p3p_stress
import pnp_sweep
import pytest


@pytest.mark.parametrize(
    "tool, size, no_difference",
    [
        (pnp_sweep, ["--problems", "30"], "0 exact-field mismatch(es)"),
        (p3p_stress, ["--draws", "300"], "lost by the change only: []"),
    ],
    ids=["pnp_sweep", "p3p_stress"],
)
def test_run_then_compare_with_itself(tmp_path, capsys, tool, size, no_difference):
    path = str(tmp_path / "run.json")
    assert tool.main(["run", path, *size]) == 0
    assert tool.main(["compare", path, path]) == 0
    out = capsys.readouterr().out
    assert no_difference in out.splitlines()
