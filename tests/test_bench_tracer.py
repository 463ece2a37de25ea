"""bench/run.py builds bench/tracer.py's Tracer even when it traces
nothing, and the Tracer looks every traced module up in sys.modules and
every traced function up by name.  Renaming or no longer importing one of
them breaks every benchmark run while the rest of the suite passes; this
test catches that."""

import importlib.util
from pathlib import Path

import pmat

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_finds_every_target():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer(pmat)
    t.assert_pristine()
    assert {label for _, _, _, label in t.bindings} == set(t.labels)
