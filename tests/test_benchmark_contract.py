"""The benchmark's tracer must find every layer it times.

perfbench/tracer.py names package functions and lru caches by string;
one that no longer resolves makes a traced benchmark run report its
metrics as null.  The tracer is loaded by path and not installed, so no
package function is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    tracer = _load_tracer()
    for layer, (modname, names) in tracer.LAYERS.items():
        for name in names:
            target = importlib.import_module(modname)
            for part in name.split("."):  # "Class.method" resolves through the class
                target = getattr(target, part, None)
            assert callable(target), f"layer {layer}: {modname}.{name} does not resolve"
    reasons = {
        label: info["reason"]
        for label, info in tracer.Tracer().lru_info().items()
        if "reason" in info
    }
    assert reasons == {}
