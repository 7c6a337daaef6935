"""Every hook the benchmark's tracer installs names a real function.

perfbench/tracer.py wraps layer functions on the names their callers look
them up by.  A rename in the package would leave a hook dangling; the
benchmark reports that only when its own tests run, so this test checks
the hook table against the package directly.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("name,path,attr", tracer.SPANS + tracer.COUNTERS)
def test_hook_resolves_in_the_package(name, path, attr):
    module = importlib.import_module(path.partition(":")[0])
    assert Path(module.__file__).resolve().parent == ROOT / "src" / "maclfr"
    owner = tracer._owner(path)
    assert attr in vars(owner), f"{name}: {path}.{attr} does not exist"


def test_installing_the_tracer_misses_no_hook():
    t = tracer.Tracer()
    t.install()
    try:
        assert not t.missing
    finally:
        t.uninstall()
