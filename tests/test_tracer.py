"""The benchmark tracer (perfbench/tracing.py) still patches every target.

The tracer wraps functions and validation hooks by name, so a refactor that
moves or renames one of them breaks traced benchmark runs.  This test loads
the tracer from its file, installs it against the package and uninstalls it.
"""

import importlib.util
import sys
from pathlib import Path

import moebiusgeo as mg
import moebiusgeo.cli  # noqa: F401  (the tracer patches loaded modules only)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(mod_name: str, attr: str):
    """What a target name is bound to now; a method is read from its own class."""
    module = sys.modules[f"moebiusgeo.{mod_name}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(module, cls_name))[meth]
    return getattr(module, attr)


def test_every_target_is_patched_and_restored():
    tracing = _load_tracing()
    keys = [(mod_name, attr) for mod_name, attr, _ in tracing.TARGETS]
    before = {key: _current(*key) for key in keys}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        unpatched = [key for key in keys if _current(*key) is before[key]]
        stale = [(name, key) for name, module in sys.modules.items()
                 if name == "moebiusgeo" or name.startswith("moebiusgeo.")
                 for key, value in vars(module).items()
                 if any(value is before[k] for k in keys if "." not in k[1])]
        space = mg.circle_from_curve(mg.chordal_circle_curve(1.0, 8))
        mg.space_from_json_dict(mg.space_to_json_dict(space))
    finally:
        tracer.uninstall()
    assert unpatched == [] and stale == []
    assert all(_current(*key) is before[key] for key in keys)
    # a derived space skips the input checks, so only the JSON input shows
    # them; the second curve is the strict chain of the curve proof
    assert tracer.names == ["circles.HalfplaneCurve.__post_init__",
                            "circles.circle_from_curve",
                            "circles.HalfplaneCurve.__post_init__",
                            "spaces.space_to_json_dict",
                            "spaces.space_from_json_dict",
                            "spaces.ExtendedMetricSpace.__post_init__"]
