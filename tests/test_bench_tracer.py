"""The traced benchmark run wraps warpquot names from outside the package.

``bench/tracer.py`` looks up public functions and a list of methods by
name; renaming or deleting one of them breaks ``bench/run.py --trace 1``.
Installing and uninstalling the tracer here turns that into a test failure.
"""

import importlib.util
from pathlib import Path

from warpquot import cli, productgeo as pg, quotient as qt

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_installs_and_uninstalls(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    originals = (qt.leaf_trace, pg.classify, cli._HANDLERS["classify"],
                 qt.QuotientModel.canonical_rep, pg.DoublyTwistedProduct.grad_log_warp)
    t = tracer.Tracer()
    t.install()
    try:
        assert qt.leaf_trace.__wrapped__ is originals[0]
        assert qt.QuotientModel.canonical_rep.__wrapped__ is originals[3]
        assert cli.main(["run", "flat-torus", "classify", "--out", str(tmp_path / "r.json")]) == 0
        assert "productgeo.classify" in t.names
    finally:
        t.uninstall()
    assert (qt.leaf_trace, pg.classify, cli._HANDLERS["classify"],
            qt.QuotientModel.canonical_rep, pg.DoublyTwistedProduct.grad_log_warp) == originals
