"""``run_grid`` reaches each stage of a trial through the ``synth`` module,
once per trial. The benchmark's tracer counts these module functions as
its ``synth.*`` layers, so an arm inlined into ``run_grid`` must fail here
rather than make a per-layer metric read 0."""

from scalepose import synth
from scalepose.synth import NoiseSpec, run_grid

LAYERS = ("sample_scene", "corrupt", "run_decoupled", "run_coupled")


def test_each_layer_runs_once_per_trial(monkeypatch):
    calls = {name: 0 for name in LAYERS}
    for name in LAYERS:

        def counted(*args, _name=name, _original=getattr(synth, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(synth, name, counted)

    grid = run_grid(["mug"], [NoiseSpec(), NoiseSpec(depth_rel_noise=0.05)], trials=2, point_count=32)
    trials = len({(r.noise, r.trial) for r in grid.trials})
    assert trials == 4
    assert calls == {name: trials for name in LAYERS}
