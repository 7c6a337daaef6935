"""Every hook the benchmark's tracer installs names a real function.

perfbench/tracer.py wraps layer functions on the names their callers look
them up by.  A rename in the package would leave a hook dangling; the
benchmark reports that only when its own tests run, so this test checks
the hook table against the package directly.  The same table names the
one kind of import that a module may keep without reading it: the name a
hook wraps.  The package itself exports exactly what it imports.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import maclfr
from maclfr.schemes import Scheme, SchemeKind, simulate
from maclfr.verify import tiny_config

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


def module_imports(body):
    """(name, line) of each import at module level, in a module-level try
    or if too, but not in a function or class; __future__ binds none."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                yield from (((alias.asname or alias.name).partition(".")[0],
                             node.lineno) for alias in node.names)
        elif isinstance(node, (ast.Try, ast.If)):
            yield from module_imports(
                node.body + node.orelse + getattr(node, "finalbody", [])
                + [s for h in getattr(node, "handlers", []) for s in h.body])


def test_every_module_reads_what_it_imports():
    # A module-level import nothing reads is dead weight, unless a hook
    # wraps it there by module and attribute (maclfr.verify's subpacketize
    # today); when the hook moves, the import shows up here.
    hooked = {(path, attr) for _, path, attr in tracer.SPANS + tracer.COUNTERS
              if ":" not in path}
    unread = []
    for path in sorted((ROOT / "src" / "maclfr").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}:{line} {name}"
                   for name, line in module_imports(tree.body)
                   if name not in read
                   and (f"maclfr.{path.stem}", name) not in hooked]
    assert unread == []


def test_the_package_exports_exactly_what_it_imports():
    # A public name deleted from its module must leave __all__ as well.
    init = ROOT / "src" / "maclfr" / "__init__.py"
    imported = {name for name, _ in module_imports(
        ast.parse(init.read_text(), str(init)).body)}
    assert sorted(maclfr.__all__) == sorted(imported)
    for name in maclfr.__all__:
        getattr(maclfr, name)



@pytest.mark.parametrize("kind", SchemeKind)
def test_the_decode_span_times_each_round_s_one_decode(kind):
    # simulate decodes every user through Scheme.decode, the name the
    # schemes.decode span hooks: one call a round, and uninstall puts the
    # original back.
    original = vars(Scheme)["decode"]
    t = tracer.Tracer()
    t.install()
    try:
        for rounds in (1, 2):
            assert simulate(tiny_config(kind, 3, 2, 1)).ok
            assert t.calls["schemes.decode"] == rounds
    finally:
        t.uninstall()
    assert vars(Scheme)["decode"] is original
