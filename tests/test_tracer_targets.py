"""The traced benchmark wraps library functions by name; every name must still exist.

`bench/run.py --trace 1` swaps each `(owner, attribute)` in `bench/tracer.py`
TARGETS for a timing wrapper.  A rename inside the package would break that
run without failing any other test, so this one checks the names directly.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [name for owner, attr, name in tracer.TARGETS if attr not in owner.__dict__]
    assert tracer.TARGETS
    assert missing == []
