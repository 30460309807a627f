"""The benchmark's tracer (perfbench/tracing.py) wraps functions of the
package by name. This checks, without running the benchmark, that every
name it wraps exists where it looks for it, and that uninstalling puts
back the very objects it found."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _held(owner, attr):
    """What the owner holds under attr: a class's own entry, else the
    module attribute."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_wraps_every_target_and_restores_the_originals():
    tracing = _load_tracing()
    originals = [(owner, attr, _held(owner, attr))
                 for *_, owners, attr in tracing.TARGETS for owner in owners]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr, fn in originals:
            assert _held(owner, attr) is not fn, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, fn in originals:
        assert _held(owner, attr) is fn, (owner, attr)
