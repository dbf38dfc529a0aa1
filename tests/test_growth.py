"""Coding traces, and the work of verifying them, grow linearly in n: counted, never timed.

tools/growth_curve.py prints the same two columns, with verify's wall time,
for n = 32 to 512.
"""

import json

from orbitcode import (
    Flavor,
    PartialInjection,
    auto_schedule,
    run,
    trace_to_data,
    trivial_oracle,
    verify_trace_data,
)


def _coding_text(n):
    oracle = trivial_oracle()
    bits = tuple((7 * i + 3) % 5 % 2 for i in range(n))
    trace = run(Flavor.CODING, bits, auto_schedule(Flavor.CODING, n), oracle)
    return json.dumps(trace_to_data(trace, oracle), separators=(",", ":")), len(trace.final.s)


def test_coding_trace_bytes_and_verify_insertions_grow_linearly(monkeypatch):
    inserted = []
    add = PartialInjection._add

    def counting(self, pairs):
        new = add(self, pairs)
        inserted.append(len(new))
        return new

    sizes = []
    for n in (128, 256, 512):
        text, final = _coding_text(n)
        sizes.append(len(text))
        inserted.clear()
        with monkeypatch.context() as patch:
            patch.setattr(PartialInjection, "_add", counting)
            verify_trace_data(json.loads(text))
        # each delta once, and the final condition once more
        assert final <= sum(inserted) <= 3 * final, n
    for smaller, larger in zip(sizes, sizes[1:]):
        assert larger <= 2.3 * smaller, sizes
