"""The benchmark's traced passes look capdisc names up with getattr.

`capbench/layers.SITES` lists (module, attribute) pairs that a traced pass
wraps; a name missing from its module breaks every traced pass, so each one
is checked here, in the package's own suite.
"""
import importlib
from pathlib import Path

CAPBENCH = Path(__file__).resolve().parents[1] / "capbench"


def test_every_traced_site_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(CAPBENCH))
    layers = importlib.import_module("layers")
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in layers.SITES
        if not hasattr(module, attr)
    ]
    assert layers.SITES and not missing
