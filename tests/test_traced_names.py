"""The names perfbench's span tracer rebinds by name must exist.

perfbench/spans.py wraps functions and methods of the package by
attribute name, so renaming or deleting one of them breaks a traced
benchmark run; this test makes it fail the suite instead.  perfbench/ is
only imported, never changed."""

from pathlib import Path

from meltpool_rl import environment, qlearn
from meltpool_rl.environment import DepthCache, StateGrid
from meltpool_rl.thermal import MaterialEnv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_traces_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    originals = (qlearn.train, environment.step, DepthCache.depth)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert environment.step is not originals[1]
        cache = DepthCache(MaterialEnv(), StateGrid(n=2))
        cache.depth(0)
    finally:
        tracer.uninstall()
    for restored, original in zip((qlearn.train, environment.step, DepthCache.depth),
                                  originals):
        assert restored is original
    assert tracer.totals["environment.DepthCache.warm"][0] == 1
    assert tracer.totals["environment.DepthCache.depth"][0] == 1
    assert tracer.c["cache_hits"] == 1
