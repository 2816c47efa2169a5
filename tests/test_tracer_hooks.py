"""The benchmark tracer's hook names must still exist in the package.

``perfbench/tracer.py`` rebinds package names from outside, and a name a
refactor removes only shows up there as an "absent" metric.  This guard
reads the tracer's hook tables and resolves every hook the way the tracer
installs it: through the class ``__dict__`` for methods, through
``getattr`` for module-level names.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


_tracer = _load_tracer()


@pytest.mark.parametrize(
    "hook", _tracer.SPANS + _tracer.COUNTS, ids=lambda hook: f"{hook.namespace}.{hook.attr}"
)
def test_tracer_hook_resolves(hook):
    module_name, _, class_name = hook.namespace.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
        assert isinstance(owner, type)
        assert owner.__dict__.get(hook.attr) is not None
    else:
        assert getattr(owner, hook.attr, None) is not None
