"""Run the cachesim CLI once with spans recorded at module boundaries.

    python3 bench/tracer.py SPANS_OUT <cachesim CLI arguments...>

Spans are recorded from outside the program: before the CLI runs, every
function that ``cachesim.cli``, ``cachesim.runner`` and ``cachesim.replay``
import from another ``cachesim`` module is replaced, in the importing
module's namespace only, by a wrapper that records one span per call.
Spans are grouped by the module that *defines* the callee, so renaming or
merging functions inside a module (say ``lookup`` and ``commit`` into one
``access``) keeps that module's layer. ``cachesim.replay.replay_call`` is
wrapped as well: it is the per-API-call boundary.

Spans stay in memory and are pickled to SPANS_OUT when the CLI returns.
Each span is ``(layer, name, start_s, end_s, parent, call_id, attr)``:
``parent`` is the index of the enclosing span or -1; ``call_id`` is
(condition, session seed, request index) of the enclosing ``replay_call``,
where the condition numbers the spans through which ``runner`` entered
``replay``; ``attr`` is the store size before the call for ``engine``
spans, the result length for ``tokens`` spans and ``(cached_read,
cache_write, prompt_tokens)`` for a ``replay_call`` span.

A wrapper's own bookkeeping costs time that the spans would otherwise
charge to the program. Once the CLI has returned, the same wrapper is
timed around an empty function and the result is written with the spans:
``outer_s`` per span lands in the parent's self time (before ``start`` and
after ``end``), ``inner_s`` inside the span itself. The analysis in
``run.py`` subtracts both. The wrappers only observe; the CLI's artifacts
are byte-identical to an untraced run, which the benchmark checks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pickle
import statistics
import sys
import time

TRACED_MODULES = ("cachesim.cli", "cachesim.runner", "cachesim.replay")
CALIBRATION_ROUNDS = 5
CALIBRATION_CALLS = 10_000


class Tracer:
    def __init__(self) -> None:
        # Raw records (key, start, end, parent, before, after); ``key``
        # indexes ``self.keys``, a (layer, name) pair per wrapped function.
        self.records: list = []
        self.keys: list[tuple[str, str]] = []
        self._stack = [-1]

    def wrap(self, fn, layer: str, before=None, after=None):
        """A wrapper recording one span per call of ``fn``. ``before(args,
        kwargs)`` and ``after(result)`` give the span's attributes."""
        key = len(self.keys)
        self.keys.append((layer, fn.__qualname__))
        records = self.records
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            note = before(args, kwargs) if before is not None else None
            i = len(records)
            records.append(None)
            parent = stack[-1]
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records[i] = (key, start, end, parent, note, None)
            if after is not None:
                records[i] = (key, start, end, parent, note, after(result))
            return result

        return traced

    def install(self, modules, store_type: type) -> None:
        def store_size(args, kwargs):
            return len(args[0]) if args and isinstance(args[0], store_type) else None

        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if not home.startswith("cachesim.") or home == module.__name__:
                    continue
                layer = home.split(".")[1]
                if layer == "engine":
                    wrapped = self.wrap(obj, layer, before=store_size)
                elif layer == "tokens":
                    wrapped = self.wrap(obj, layer, after=len)
                else:
                    wrapped = self.wrap(obj, layer)
                setattr(module, attr, wrapped)

    def wrap_call(self, fn):
        """The per-API-call span, noting (session seed, request index) and usage."""
        params = list(inspect.signature(fn).parameters)

        def arg(name, args, kwargs):
            if name in kwargs:
                return kwargs[name]
            i = params.index(name)
            return args[i] if i < len(args) else None

        def ids(args, kwargs):
            return (arg("session_seed", args, kwargs), arg("request_index", args, kwargs))

        def usage(result):
            u = result.usage
            return (u.cached_read, u.cache_write, u.uncached_input + u.cached_read)

        return self.wrap(fn, "replay", before=ids, after=usage)

    def spans(self, call_key: int) -> list[tuple]:
        """The records as spans, with each one's call id resolved from its
        ancestors (a parent always precedes its children)."""
        keys = self.keys
        spans: list[tuple] = []
        entry = [-1] * len(self.records)  # ordinal of the span runner entered replay by
        call_ids: list = [None] * len(self.records)
        conditions = 0
        for i, (key, start, end, parent, note, result) in enumerate(self.records):
            layer, name = keys[key]
            if parent >= 0:
                entry[i] = entry[parent]
                call_ids[i] = call_ids[parent]
            if layer == "replay" and entry[i] < 0:
                entry[i] = conditions
                conditions += 1
            if key == call_key:
                call_ids[i] = (entry[i], *note)
                attr = result
            else:
                attr = note if note is not None else result
            spans.append((layer, name, start, end, parent, call_ids[i], attr))
        return spans


def _empty(a, b, c, d):
    return None


def span_cost() -> dict[str, float]:
    """Per-span cost of a wrapper without attributes: the median of
    ``CALIBRATION_ROUNDS`` rounds of ``CALIBRATION_CALLS`` calls.

    The attribute hooks (store size, result length, call ids and usage) are
    not included: their cost stays in the parent's self time.
    """
    clock = time.perf_counter
    outer, inner = [], []
    for _ in range(CALIBRATION_ROUNDS):
        tracer = Tracer()
        traced = tracer.wrap(_empty, "calibration")
        t0 = clock()
        for _ in range(CALIBRATION_CALLS):
            _empty(1, 2, 3, 4)
        t1 = clock()
        for _ in range(CALIBRATION_CALLS):
            traced(1, 2, 3, 4)
        t2 = clock()
        plain = t1 - t0
        inside = sum(r[2] - r[1] for r in tracer.records)
        outer.append((t2 - t1 - inside - plain) / CALIBRATION_CALLS)
        inner.append(max(0.0, (inside - plain) / CALIBRATION_CALLS))
    return {"outer_s": statistics.median(outer), "inner_s": statistics.median(inner)}


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS_OUT <cachesim CLI arguments...>", file=sys.stderr)
        return 2
    spans_out, cli_args = argv[0], argv[1:]
    modules = [importlib.import_module(name) for name in TRACED_MODULES]
    engine = importlib.import_module("cachesim.engine")
    replay = importlib.import_module("cachesim.replay")
    tracer = Tracer()
    tracer.install(modules, engine.CacheStore)
    replay.replay_call = tracer.wrap_call(replay.replay_call)
    call_key = len(tracer.keys) - 1

    code = modules[0].main(cli_args)
    with open(spans_out, "wb") as fh:
        pickle.dump({"spans": tracer.spans(call_key), "span_cost": span_cost()},
                    fh, protocol=pickle.HIGHEST_PROTOCOL)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
