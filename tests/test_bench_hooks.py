"""The benchmark's tracer (``perfbench/spans.py``) wraps package functions
by owner and attribute name from outside ``src/``, and its harness reads
``_kernels.backend_name``. A rename under ``src/`` must fail here rather
than in ``perfbench/run.py --trace 1``."""

import importlib.util
from pathlib import Path

from scalepose import _kernels

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = _load_spans()._TARGETS
    assert targets
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, *_ in targets if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_backend_name_exists():
    assert callable(_kernels.backend_name)
