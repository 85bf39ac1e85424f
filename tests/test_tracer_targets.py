"""Every function and method the benchmark's tracer wraps still exists.

perfbench/tracer.py skips a target it cannot find and leaves the metrics
that need it out of its output, so a rename in src/ would drop per-layer
metrics without a failure.  This reads the tracer's tables (and changes
nothing in perfbench/) and looks each target up the way Tracer.install
does: module functions by attribute, methods in their class's __dict__.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANNED_FUNCTIONS, module.SPANNED_METHODS + module.COUNTED_METHODS


def test_every_traced_target_exists_in_src():
    functions, methods = _tracer_tables()
    assert functions and methods
    for name, mod, attr in functions:
        module = importlib.import_module(f"fqidtest.{mod}")
        assert callable(getattr(module, attr, None)), f"{name}: fqidtest.{mod}.{attr} is gone"
    for name, mod, cls_name, attr in methods:
        cls = getattr(importlib.import_module(f"fqidtest.{mod}"), cls_name, None)
        assert cls is not None and callable(vars(cls).get(attr)), (
            f"{name}: fqidtest.{mod}.{cls_name}.{attr} is gone"
        )
