"""``run_grid`` reaches each stage of a trial through the ``synth`` module,
and computes each fact once: one scene per (category, trial), one RANSAC
solve per (category, trial, pixel noise, outlier fraction), and one
corruption and one result of each arm per (cell, trial). The benchmark's
tracer counts these module functions as its ``synth.*`` layers (and
``synth.ransac_pnp`` as ``pnp.ransac_pnp``), so an arm inlined into
``run_grid`` must fail here rather than make a per-layer metric read 0."""

import itertools

from scalepose import synth
from scalepose.synth import NoiseSpec, run_grid

LAYERS = ("sample_scene", "ransac_pnp", "corrupt", "run_decoupled", "run_coupled")


def test_each_layer_runs_once_per_key(monkeypatch):
    calls = {name: 0 for name in LAYERS}
    for name in LAYERS:

        def counted(*args, _name=name, _original=getattr(synth, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(synth, name, counted)

    pixel_noise, outliers = (0.5, 1.0), (0.0, 0.2)
    specs = [NoiseSpec(*levels) for levels in itertools.product(pixel_noise, outliers, (0.0, 0.1), (0.0, 0.05))]
    categories, trials = ["camera", "mug"], 2
    grid = run_grid(categories, specs, trials=trials, point_count=32)
    cell_trials = len(categories) * len(specs) * trials
    assert len(grid.trials) == 2 * cell_trials
    assert calls == {
        "sample_scene": len(categories) * trials,
        "ransac_pnp": len(categories) * trials * len(pixel_noise) * len(outliers),
        "corrupt": cell_trials,
        "run_decoupled": cell_trials,
        "run_coupled": cell_trials,
    }
