"""Every function the benchmark's traced run rebinds still exists in the
package, so a refactor that renames or removes one fails here and not in
``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def test_every_traced_binding_resolves_in_bomp():
    layers = _traced_layers()
    assert layers
    missing = [
        f"{module}.{name}"
        for module, name in layers
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert not missing, f"perfbench/spans.py traces names bomp no longer defines: {missing}"
