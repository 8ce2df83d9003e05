"""``run_grid`` reaches each stage of a trial through the ``synth`` module,
and computes each fact once: one scene per (category, trial), one RANSAC
solve per (category, trial, pixel noise, outlier fraction), one corruption
and one coupled row per (category, trial, pixel noise, outlier fraction,
depth noise), and one decoupled row per (category, trial, pixel noise,
outlier fraction, offset); the oracle offset moves with the scale error
only. Every other cell gets a copy of the row it shares, and a level that
``run_grid`` does not know splits every key. The benchmark's
tracer counts these module functions as its ``synth.*`` layers (and
``synth.ransac_pnp`` as ``pnp.ransac_pnp``), so an arm inlined into
``run_grid`` must fail here rather than make a per-layer metric read 0."""

import itertools
from dataclasses import dataclass

from scalepose import synth
from scalepose.synth import NoiseSpec, run_grid

LAYERS = ("sample_scene", "ransac_pnp", "corrupt", "run_decoupled", "run_coupled")


def count_layers(monkeypatch):
    """Wrap every layer of ``LAYERS`` to count its calls in the dict returned."""
    calls = {name: 0 for name in LAYERS}
    for name in LAYERS:

        def counted(*args, _name=name, _original=getattr(synth, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(synth, name, counted)
    return calls


def test_each_layer_runs_once_per_key(monkeypatch):
    calls = count_layers(monkeypatch)
    pixel_noise, outliers, scale_errors, depth_noise = (0.5, 1.0), (0.0, 0.2), (0.0, 0.1), (0.0, 0.05)
    specs = [NoiseSpec(*levels) for levels in itertools.product(pixel_noise, outliers, scale_errors, depth_noise)]
    categories, trials = ["camera", "mug"], 2
    grid = run_grid(categories, specs, trials=trials, point_count=32)
    assert len(grid.trials) == 2 * len(categories) * len(specs) * trials
    solves = len(categories) * trials * len(pixel_noise) * len(outliers)
    assert calls == {
        "sample_scene": len(categories) * trials,
        "ransac_pnp": solves,
        "corrupt": solves * len(depth_noise),
        "run_decoupled": solves * len(scale_errors),
        "run_coupled": solves * len(depth_noise),
    }


@dataclass(frozen=True)
class ExtraLevelSpec(NoiseSpec):
    """A noise spec with one level that ``run_grid``'s keys do not name."""

    extra_level: float = 0.0


def test_a_level_the_keys_do_not_name_is_not_shared(monkeypatch):
    calls = count_layers(monkeypatch)
    specs = [ExtraLevelSpec(0.5, 0.2, 0.1, 0.05, extra_level=level) for level in (0.0, 1.0)]
    run_grid(["mug"], specs, trials=1, point_count=32)
    assert calls == {
        "sample_scene": 1,
        "ransac_pnp": 2,
        "corrupt": 2,
        "run_decoupled": 2,
        "run_coupled": 2,
    }
