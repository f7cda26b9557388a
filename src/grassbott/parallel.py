"""Serial fan-out over independent items, in input order.

The normality scan and :func:`grassbott.koszul.build_table` map their
per-degree work through :func:`parallel_map` rather than a comprehension
because perfbench's tracer wraps this function as its ``parallel.map``
layer, and ``BENCHMARK.json`` names five metrics of that layer.  Threads
did not speed up the pure-Python scans (the interpreter lock serialises
them), so the map is serial.  Delete this module only together with a
benchmark change that retires the ``parallel.map`` metrics; without the
module the tracer reports them as null.
"""


def parallel_map(fn, items) -> list:
    return [fn(x) for x in items]
