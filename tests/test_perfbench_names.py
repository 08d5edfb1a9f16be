"""The per-layer tracer of perfbench/ patches package attributes by name; a
renamed or deleted attribute would break its --trace mode."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves_and_is_restored():
    tracing = load_tracing()
    originals = [getattr(module, attr) for module, attr, _ in tracing.PATCHES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, attr, _), original in zip(tracing.PATCHES, originals):
            assert getattr(module, attr) is not original, attr
    finally:
        tracer.uninstall()
    for (module, attr, _), original in zip(tracing.PATCHES, originals):
        assert getattr(module, attr) is original, attr
