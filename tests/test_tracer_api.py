"""The benchmark's tracer (``perfbench/tracing.py``) wraps coxembed
functions by module and name, and looks each up with no default, so a
renamed or removed function ends every traced run with AttributeError.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [target for fns in tracing.LAYERS.values() for target in fns]
    targets += [("words", "free_reduce"), ("words", "relator_nf")]
    missing = [
        f"{modname}.{fn}"
        for modname, fn in targets
        if not callable(getattr(importlib.import_module(f"coxembed.{modname}"), fn, None))
    ]
    assert missing == []
