"""The layer boundaries that the benchmark's trace mode wraps
(``perfbench/spans.py``, ``TARGETS``) must exist in rcpolar, so that a rename
fails here rather than in a traced benchmark run; so must every name the
package exports."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_span_targets_resolve_to_rcpolar_callables():
    targets = _span_targets()
    assert targets
    for mod, fn in targets:
        obj = getattr(importlib.import_module(f"rcpolar.{mod}"), fn, None)
        assert callable(obj), f"rcpolar.{mod}.{fn} is not a callable"


def test_public_names_resolve():
    package = importlib.import_module("rcpolar")
    missing = [name for name in package.__all__
               if not hasattr(package, name)]
    assert package.__all__ and not missing
