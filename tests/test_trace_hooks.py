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


def test_every_histogram_sweep_is_traced():
    # enumeration.sweeps and tallied count only the kernels PRIVATE_HOOKS
    # names, so a histogram sweep under another name would drop out of both
    tc = _trace_child()
    enumeration = importlib.import_module("qpartitions.enumeration")
    sweeps = {name for name, obj in vars(enumeration).items()
              if name.startswith("_sweep") and callable(obj)}
    # _sweep_ubar returns per-n totals, not histograms, and is not traced
    assert sweeps - {"_sweep_ubar"} <= set(tc.PRIVATE_HOOKS["enumeration"])
