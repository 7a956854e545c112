"""Run one kklab CLI job in-process with span recorders on the library.

Usage: python3 perfbench/tracer.py SPANS_JSON ARGV...

Every public function of every kklab library module is replaced, in its
defining module and in each kklab module that imported it by name, by a
wrapper that records one span per call: call count, inclusive time, and
the time its child spans cover.  Self time is inclusive time minus
covered time.  The wrappers exist only in this process; the sources are
not touched.  ``parallel_map`` carries the calling span into its worker
threads, where child spans overlap each other, so covered time is the
union of their intervals.  Then ``kklab.cli.main(ARGV)`` runs as the
console script would run it, and a summary is written to SPANS_JSON.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

LAYERS = ("graphs", "exact", "util", "counting", "catalog", "expectation",
          "verifier", "montecarlo", "search")
# a bit-iteration helper resumed inside every hot loop: a span per item
# would cost more than the loop body it measures
UNTRACED = {"util.iter_bits"}

_tls = threading.local()
_tables: list = []
_tables_lock = threading.Lock()
perf_counter = time.perf_counter


class _Table:
    """Per-thread accumulators, merged when the job ends."""

    def __init__(self):
        self.rows: dict = {}      # (name, importer) -> [calls, inclusive_s, covered_s]
        self.counters: dict = {}  # name -> number
        self.top_s = 0.0          # time in spans with no parent span


class _Frame:
    """An open span.  Children in the span's own thread add their time to
    ``covered``; children in worker threads add (start, end) to ``remote``."""

    __slots__ = ("covered", "remote", "is_remote")

    def __init__(self, is_remote=False):
        self.covered = 0.0
        self.remote = []
        self.is_remote = is_remote


def _table() -> _Table:
    table = getattr(_tls, "table", None)
    if table is None:
        table = _tls.table = _Table()
        _tls.frame = None
        with _tables_lock:
            _tables.append(table)
    return table


def _union(intervals: list) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def _close(table, key, frame, parent, start, end, calls=1) -> None:
    dur = end - start
    covered = frame.covered + (_union(frame.remote) if frame.remote else 0.0)
    row = table.rows.get(key)
    if row is None:
        row = table.rows[key] = [0, 0.0, 0.0]
    row[0] += calls
    row[1] += dur
    row[2] += covered
    if parent is None:
        table.top_s += dur
    elif parent.is_remote:
        parent.remote.append((start, end))
    else:
        parent.covered += dur


def _bump(table, name, amount) -> None:
    table.counters[name] = table.counters.get(name, 0) + amount


# per-function hooks that turn arguments or results into work counters
def _subsets(table, args, result):
    _bump(table, "expectation.subsets", 1 << args[0].edge_count)


def _embeddings(table, args, result):
    _bump(table, "counting.embeddings", result)


def _pairs(table, args, result):
    n = args[0]
    _bump(table, "montecarlo.pairs", n * (n - 1) // 2)


HOOKS = {
    "expectation.q_min": _subsets,
    "expectation.expectation_threshold": _subsets,
    "expectation.violation_scan": _subsets,
    "counting.count_labeled": _embeddings,
    "montecarlo.sample_gnp": _pairs,
}


def _span(fn, key, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        table = _table()
        parent = _tls.frame
        frame = _tls.frame = _Frame()
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            _tls.frame = parent
            _close(table, key, frame, parent, start, end)
        if hook is not None:
            hook(table, args, result)
        return result

    return wrapper


def _span_generator(fn, key):
    """Spans for a generator function: each resumption is timed and the
    call is counted once; time the consumer spends between items is not."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        table = _table()
        gen = fn(*args, **kwargs)
        calls = 1
        while True:
            parent = _tls.frame
            frame = _tls.frame = _Frame()
            start = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                end = perf_counter()
                _tls.frame = parent
                _close(table, key, frame, parent, start, end, calls)
                calls = 0
            yield item

    return wrapper


def _span_parallel_map(fn, key):
    """parallel_map: a span whose items run as children of it, even on
    pool threads, plus counts of items and of calls that used the pool."""

    def carry(parent, item_fn):
        def run_item(item):
            _table()
            saved = _tls.frame
            frame = _tls.frame = _Frame(is_remote=True)
            try:
                return item_fn(item)
            finally:
                _tls.frame = saved
                parent.remote.extend(frame.remote)
        return run_item

    @functools.wraps(fn)
    def wrapper(item_fn, items, threads=1):
        items = list(items)
        table = _table()
        _bump(table, "util.parallel_map.items", len(items))
        _bump(table, "util.parallel_map.pooled_calls", int(threads > 1 and len(items) > 1))
        parent = _tls.frame
        frame = _tls.frame = _Frame()
        start = perf_counter()
        try:
            return fn(carry(frame, item_fn), items, threads)
        finally:
            end = perf_counter()
            _tls.frame = parent
            _close(table, key, frame, parent, start, end)

    return wrapper


def install(kklab_modules: dict) -> None:
    """Wrap every public library function wherever kklab bound its name."""
    for layer in LAYERS:
        module = kklab_modules[layer]
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or inspect.isclass(fn) or not callable(fn):
                continue
            if getattr(fn, "__module__", None) != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if name in UNTRACED:
                continue
            for importer, target in kklab_modules.items():
                if vars(target).get(attr) is not fn:
                    continue
                key = (name, importer)
                if name == "util.parallel_map":
                    wrapped = _span_parallel_map(fn, key)
                elif inspect.isgeneratorfunction(fn):
                    wrapped = _span_generator(fn, key)
                else:
                    wrapped = _span(fn, key, HOOKS.get(name))
                setattr(target, attr, wrapped)


def summary(import_s: float, main_s: float) -> dict:
    """Merge the per-thread tables into one JSON-ready record."""
    funcs: dict = {}
    by_importer: dict = {}
    counters: dict = {}
    top_s = 0.0
    with _tables_lock:
        tables = list(_tables)
    for table in tables:
        top_s += table.top_s
        for (name, importer), (calls, incl, covered) in table.rows.items():
            row = funcs.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += incl
            row[2] += incl - covered
            imp = by_importer.setdefault(name, {})
            imp[importer] = imp.get(importer, 0) + calls
        for name, value in table.counters.items():
            counters[name] = counters.get(name, 0) + value
    return {
        "import_s": import_s,
        "main_s": main_s,
        "top_s": top_s,
        "funcs": {k: {"calls": v[0], "incl_s": v[1], "self_s": v[2]} for k, v in funcs.items()},
        "calls_by_importer": by_importer,
        "counters": counters,
    }


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import kklab
    import kklab.cli
    import_s = perf_counter() - start
    modules = {layer: importlib.import_module("kklab." + layer) for layer in LAYERS}
    modules["kklab"] = kklab
    modules["cli"] = kklab.cli
    install(modules)
    start = perf_counter()
    try:
        rc = kklab.cli.main(argv)
    finally:
        main_s = perf_counter() - start
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(summary(import_s, main_s), fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
