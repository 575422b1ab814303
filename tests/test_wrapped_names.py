"""The benchmark's traced run wraps program names by string; each must resolve.

``perfbench/spans.py`` lists them in ``WRAPPED``.  A rename in the program
that misses that table breaks only the traced benchmark run, so the names
are checked here.  The module is loaded from its path (it imports only the
standard library) and its tracer is never installed.
"""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, attr, _, _ in spans.WRAPPED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"names the traced benchmark wraps are gone: {', '.join(missing)}"
