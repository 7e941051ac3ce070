"""The benchmark's wrap sites name functions that exist.

bench/layers.py wraps comreg functions by module and attribute name, so
deleting or renaming one breaks only a traced benchmark run.  This
resolves every site without tracing anything.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


class Recorder:
    """Stands in for the tracer: looks each site up and keeps it."""

    def __init__(self):
        self.sites = []

    def wrap(self, owner, attr, name, summarize):
        self.sites.append((f"{owner.__name__}.{attr}", getattr(owner, attr)))


def test_every_wrap_site_is_callable():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    recorder = Recorder()
    layers.install(recorder)
    assert recorder.sites
    assert [site for site, target in recorder.sites if not callable(target)] == []
