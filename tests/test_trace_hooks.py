"""The functions perfbench's per-layer trace wraps still exist.

``perfbench/trace_child.py`` reports a vanished hook point only on a printed
"missing per-layer metrics" line, so a rename would otherwise go unnoticed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"


def _trace_child():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hook_points_exist():
    tc = _trace_child()
    layers = {name: importlib.import_module(f"qpartitions.{name}") for name in tc.LAYERS}
    for table in (tc.HOOK_POINTS, tc.PRIVATE_HOOKS):
        for layer, names in table.items():
            for name in names:
                assert callable(vars(layers[layer]).get(name)), f"{layer}.{name}"
    series_cls = layers["series"].LaurentSeries
    for name in tc.SERIES_METHODS:
        assert callable(getattr(series_cls, name, None)), f"LaurentSeries.{name}"
    assert callable(getattr(layers["enumeration"]._HistCache, "get", None))
