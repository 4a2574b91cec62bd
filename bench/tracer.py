"""Span tracing of pgrid's layers, from outside the package.

``Tracer.patch`` replaces each public function of the layer modules with a
wrapper, at every name the package binds it under (``pgrid.search`` imports
``closure_mask`` from ``pgrid.engine``, so both names are rebound).  Nested
calls therefore become child spans.  A span records its name, start, end,
parent and op id; spans stay in memory and are written out when the run
ends.  Leaf functions called thousands of times per op are folded into one
(calls, total time) entry per parent span to bound the overhead.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

import stats

LAYERS = (
    "engine",
    "grid",
    "perimeter",
    "constructions",
    "formulas",
    "search",
    "verify",
    "fileformat",
    "render",
    "cli",
)

# Leaves (they call no other wrapped function once caches are warm) that run
# thousands of times per op; their calls are aggregated per parent span.
HOT = frozenset(
    {
        "engine.closure_mask",
        "formulas.ceil_two_sqrt",
        "formulas.extremal_params",
        "formulas.percolation_number_grid",
        "formulas.percolation_number_torus",
        "formulas.independent_interior_capacity",
        "perimeter.min_perimeter",
        "perimeter.min_perimeter_height_bounded",
        "perimeter.shared_edge_count",
        "grid.grid",
        "grid.torus",
        "grid.neighbors",
        "grid.adjacency_lists",
        "grid.CellSet.from_vertices",
    }
)

ITER = "grid.CellSet.__iter__"

# Methods traced besides the module-level functions: cell-set iteration and
# construction, and report serialisation.
_METHODS = (
    ("grid", "CellSet", "__iter__"),
    ("grid", "CellSet", "from_vertices"),
    ("grid", "PollutedInstance", "of"),
    ("verify", "SuiteReport", "to_csv"),
    ("verify", "SuiteReport", "to_json"),
)


def _count_result(tracer: "Tracer", name: str, args: tuple, result: object) -> None:
    """Work counts read off a traced call's arguments and result."""
    counts = tracer.counts
    if name == "engine.percolate":
        counts["engine.rounds"] += result.round_count
    elif name == "fileformat.write_instance":
        counts["fileformat.bytes"] += len(result)
    elif name == "fileformat.parse_instance":
        counts["fileformat.bytes"] += len(args[0])
    elif name == "render.render_trace":
        counts["render.bytes_out"] += len(result)
    elif name.startswith("verify.verify_"):
        counts["verify.rows"] += len(result.rows)
        counts["verify.failed_rows"] += len(result.failures)
    elif name.startswith("search."):
        counts["search.solved"] += 1


def calibrate(n: int = 20000, repeats: int = 3) -> dict[str, tuple[float, float]]:
    """Seconds each wrapper adds per event, split in two.

    The first part falls inside the event's own timed interval, the second
    is seen only by the caller.  Events are a span, a hot call and one step
    of an iterator.  Each part is the least of ``repeats`` measurements on a
    no-op, which is the one least disturbed by other load.
    """

    def noop(*args):
        return None

    best: dict[str, tuple[float, float]] = {}
    loop = range(n)
    for _ in range(repeats):
        cal = Tracer()
        hot = cal._wrap_hot(noop, "formulas.noop")
        span = cal._wrap_span(noop, "formulas.noop")
        steps = cal._wrap_iter(lambda _: iter(loop))
        t0 = perf_counter()
        for _ in loop:
            pass
        empty = (perf_counter() - t0) / n
        t0 = perf_counter()
        for _ in loop:
            noop()
        call = (perf_counter() - t0) / n - empty
        cal.begin_op("calibrate")
        t0 = perf_counter()
        for _ in loop:
            hot()
        hot_total = (perf_counter() - t0) / n - empty
        t0 = perf_counter()
        for _ in loop:
            span()
        span_total = (perf_counter() - t0) / n - empty
        t0 = perf_counter()
        for _ in steps(None):
            pass
        item_total = (perf_counter() - t0) / n - empty
        cal.end_op()
        hot_in = sum(e[1] for (_, name), e in cal.agg.items() if name != ITER) / n
        item_in = sum(e[1] for (_, name), e in cal.agg.items() if name == ITER) / n
        spans = [k for k in range(len(cal.span_id)) if cal.span_parent[k] > 0]
        span_in = sum(cal.span_end[k] - cal.span_start[k] for k in spans) / n
        for kind, total, inside, raw in (
            ("hot", hot_total, hot_in, call),
            ("span", span_total, span_in, call),
            ("item", item_total, item_in, 0.0),
        ):
            part = (max(inside - raw, 0.0), max(total - inside, 0.0))
            old = best.get(kind, part)
            best[kind] = (min(old[0], part[0]), min(old[1], part[1]))
    return best


class Tracer:
    """Collects spans and per-parent aggregates for one traced phase."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_name = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # open spans: [id, parent, op, name id, start]
        self.agg: dict[tuple[int, str], list] = {}  # (parent id, name) -> [calls, seconds, items]
        self.counts: Counter = Counter()
        self.ops: dict[int, str] = {}  # op id -> op name
        self.hot = 0
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []
        self._budget_error: type = Exception
        # per-event wrapper cost, (inside, caller); set by patch()
        self.cost = {"hot": (0.0, 0.0), "span": (0.0, 0.0), "item": (0.0, 0.0)}

    # -- spans -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, op: int) -> None:
        stack = self.stack
        self._next_id += 1
        parent = stack[-1][0] if stack else -1
        stack.append([self._next_id, parent, op, nid, perf_counter()])

    def _close(self) -> None:
        end = perf_counter()
        sid, parent, op, nid, start = self.stack.pop()
        self.span_id.append(sid)
        self.span_parent.append(parent)
        self.span_op.append(op)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(end)

    def begin_op(self, op_name: str) -> None:
        """Open the root span of one op; the harness owns its self time."""
        op_id = len(self.ops) + 1
        self.ops[op_id] = op_name
        self._open(self._name_id("harness.op"), op_id)

    def end_op(self) -> None:
        self._close()

    def _add(self, parent: int, name: str, calls: int, seconds: float, items: int) -> None:
        entry = self.agg.get((parent, name))
        if entry is None:
            self.agg[(parent, name)] = [calls, seconds, items]
        else:
            entry[0] += calls
            entry[1] += seconds
            entry[2] += items

    # -- wrappers --------------------------------------------------------

    def _wrap_span(self, fn, name: str):
        nid = self._name_id(name)
        stack = self.stack

        def traced(*args, **kwargs):
            if self.hot or not stack:
                return fn(*args, **kwargs)
            self._open(nid, stack[-1][2])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close()
                if isinstance(exc, self._budget_error):
                    self.counts["search.budget_exceeded"] += 1
                raise
            self._close()
            _count_result(self, name, args, result)
            return result

        return traced

    def _wrap_hot(self, fn, name: str):
        stack = self.stack
        agg = self.agg

        def traced(*args, **kwargs):
            if self.hot or not stack:
                return fn(*args, **kwargs)
            self.hot = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                self.hot = 0
                # Inlined rather than calling _add: this runs millions of times.
                key = (stack[-1][0], name)
                entry = agg.get(key)
                if entry is None:
                    agg[key] = [1, seconds, 0]
                else:
                    entry[0] += 1
                    entry[1] += seconds

        return traced

    def _wrap_iter(self, fn):
        stack = self.stack

        def traced(cells):
            inner = fn(cells)
            if self.hot or not stack:
                return inner
            self._add(stack[-1][0], ITER, 1, 0.0, 0)
            return self._timed_iter(inner)

        return traced

    def _timed_iter(self, inner):
        # Time each step and credit it to the span open at that step, which
        # is the consumer, not necessarily the span that created the iterator.
        # Steps are summed locally while the consumer stays the same span.
        stack = self.stack
        owner, seconds, items = None, 0.0, 0
        try:
            while True:
                if self.hot or not stack:
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    yield value
                    continue
                top = stack[-1][0]
                if top != owner:
                    if owner is not None:
                        self._add(owner, ITER, 0, seconds, items)
                    owner, seconds, items = top, 0.0, 0
                self.hot = 1
                start = perf_counter()
                try:
                    value = next(inner)
                except StopIteration:
                    seconds += perf_counter() - start
                    return
                finally:
                    self.hot = 0
                seconds += perf_counter() - start
                items += 1
                yield value
        finally:
            if owner is not None:
                self._add(owner, ITER, 0, seconds, items)

    def _wrap(self, fn, name: str):
        if name == ITER:
            return self._wrap_iter(fn)
        if name in HOT:
            return self._wrap_hot(fn, name)
        return self._wrap_span(fn, name)

    # -- patching --------------------------------------------------------

    def patch(self) -> None:
        """Wrap every public function of the layer modules where it is bound."""
        self.cost = calibrate()
        self._budget_error = sys.modules["pgrid.errors"].BudgetExceededError
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules[f"pgrid.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__:
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for name, module in list(sys.modules.items()):
            if name != "pgrid" and not name.startswith("pgrid."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, attr, hit[1])
        for layer, cls_name, attr in _METHODS:
            cls = getattr(sys.modules[f"pgrid.{layer}"], cls_name)
            raw = vars(cls)[attr]
            name = f"{layer}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                self._set(cls, attr, self._wrap(raw, name))

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def unpatch(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def _self_times(self) -> tuple[dict[int, float], dict[int, tuple[str, int]], Counter]:
        """Self time per span and per aggregate, keyed by id; ids map to (name, op).

        The calibrated wrapper cost is taken out of the spans and aggregates
        it inflated and returned per op as the tracer's own time, so the self
        times still add up to the traced wall time.
        """
        info = {}
        rows = []
        for k in range(len(self.span_id)):
            sid = self.span_id[k]
            info[sid] = (self.names[self.span_name[k]], self.span_op[k])
            parent = self.span_parent[k]
            rows.append((sid, None if parent < 0 else parent, self.span_start[k], self.span_end[k]))
        for n, ((parent, name), (_, seconds, _)) in enumerate(self.agg.items(), start=1):
            info[-n] = (name, info[parent][1])
            rows.append((-n, parent, 0.0, seconds))
        self_s = stats.self_times(rows)
        overhead: Counter = Counter()

        def discount(sid: int, parent: int, events: int, kind: str) -> None:
            inside, caller = self.cost[kind]
            self_s[sid] -= events * inside
            self_s[parent] -= events * caller
            overhead[info[sid][1]] += events * (inside + caller)

        for sid, parent, _, _ in rows[: len(self.span_id)]:
            if parent is not None:
                discount(sid, parent, 1, "span")
        for n, ((parent, name), (calls, _, items)) in enumerate(self.agg.items(), start=1):
            if name == ITER:
                discount(-n, parent, items, "item")
            else:
                discount(-n, parent, calls, "hot")
        return self_s, info, overhead

    def layer_metrics(self, passes: int, series: dict[str, int]) -> dict[str, tuple[float, str]]:
        """Per-pass layer self times and work counts of the traced phase.

        ``series`` maps op names to the cell count of their board; engine,
        grid, perimeter and file format get the log-log slope of their
        per-op self time against those cell counts.
        """
        self_s, info, overhead = self._self_times()
        layer_s: Counter = Counter()
        op_layer_s: Counter = Counter()
        for op, seconds in overhead.items():
            layer_s["tracer"] += seconds
            op_layer_s[(self.ops[op], "tracer")] += seconds
        calls: Counter = Counter()
        for sid, seconds in self_s.items():
            name, op = info[sid]
            layer = name.split(".", 1)[0]
            layer_s[layer] += seconds
            op_layer_s[(self.ops[op], layer)] += seconds
            if sid > 0 and layer != "harness":
                calls[layer] += 1
        iter_calls = cells_iterated = nodes = 0
        span_layer = {sid: name.split(".", 1)[0] for sid, (name, _) in info.items() if sid > 0}
        for (parent, name), (n_calls, _, items) in self.agg.items():
            layer = name.split(".", 1)[0]
            if name == ITER:
                iter_calls += n_calls
                cells_iterated += items
            else:
                calls[layer] += n_calls
            if name == "engine.closure_mask" and span_layer.get(parent) == "search":
                nodes += n_calls
        counts = self.counts

        def per_pass(x: float) -> float:
            return x / passes

        def slope(layer: str) -> float:
            points = [(cells, op_layer_s[(op, layer)] / passes) for op, cells in series.items()]
            return stats.loglog_slope(points)

        wall = sum(self_s.values()) + sum(overhead.values())
        m = {
            "engine.calls": (per_pass(calls["engine"]), "count"),
            "engine.self_s": (per_pass(layer_s["engine"]), "s"),
            "engine.rounds": (per_pass(counts["engine.rounds"]), "count"),
            "engine.us_per_call": (1e6 * layer_s["engine"] / calls["engine"] if calls["engine"] else 0.0, "us"),
            "engine.scaling_exp": (slope("engine"), "slope"),
            "grid.iter_calls": (per_pass(iter_calls), "count"),
            "grid.cells_iterated": (per_pass(cells_iterated), "count"),
            "grid.self_s": (per_pass(layer_s["grid"]), "s"),
            "grid.scaling_exp": (slope("grid"), "slope"),
            "perimeter.calls": (per_pass(calls["perimeter"]), "count"),
            "perimeter.self_s": (per_pass(layer_s["perimeter"]), "s"),
            "perimeter.scaling_exp": (slope("perimeter"), "slope"),
            "constructions.calls": (per_pass(calls["constructions"]), "count"),
            "constructions.self_s": (per_pass(layer_s["constructions"]), "s"),
            "formulas.calls": (per_pass(calls["formulas"]), "count"),
            "formulas.self_s": (per_pass(layer_s["formulas"]), "s"),
            "search.calls": (per_pass(calls["search"]), "count"),
            "search.self_s": (per_pass(layer_s["search"]), "s"),
            "search.nodes": (per_pass(nodes), "count"),
            "search.nodes_per_instance": (nodes / calls["search"] if calls["search"] else 0.0, "count"),
            "search.solve_ratio": (counts["search.solved"] / nodes if nodes else 0.0, "ratio"),
            "search.budget_exceeded": (per_pass(counts["search.budget_exceeded"]), "count"),
            "verify.rows": (per_pass(counts["verify.rows"]), "count"),
            "verify.self_s": (per_pass(layer_s["verify"]), "s"),
            "verify.failed_rows": (per_pass(counts["verify.failed_rows"]), "count"),
            "fileformat.calls": (per_pass(calls["fileformat"]), "count"),
            "fileformat.self_s": (per_pass(layer_s["fileformat"]), "s"),
            "fileformat.bytes": (per_pass(counts["fileformat.bytes"]), "bytes"),
            "fileformat.scaling_exp": (slope("fileformat"), "slope"),
            "render.calls": (per_pass(calls["render"]), "count"),
            "render.self_s": (per_pass(layer_s["render"]), "s"),
            "render.bytes_out": (per_pass(counts["render.bytes_out"]), "bytes"),
            "cli.calls": (per_pass(calls["cli"]), "count"),
            "cli.self_s": (per_pass(layer_s["cli"]), "s"),
            "cli.report_bytes": (per_pass(counts["cli.report_bytes"]), "bytes"),
            "harness.self_s": (per_pass(layer_s["harness"]), "s"),
            "tracer.self_s": (per_pass(layer_s["tracer"]), "s"),
            "traced_wall_s": (per_pass(wall), "s"),
        }
        return m

    def write(self, path) -> None:
        """Write spans and aggregates as gzipped JSON lines."""
        with gzip.open(path, "wt") as out:
            for k in range(len(self.span_id)):
                out.write(json.dumps({
                    "id": self.span_id[k],
                    "parent": self.span_parent[k],
                    "op": self.span_op[k],
                    "name": self.names[self.span_name[k]],
                    "start": self.span_start[k],
                    "end": self.span_end[k],
                }) + "\n")
            for (parent, name), (calls, seconds, items) in self.agg.items():
                out.write(json.dumps({
                    "aggregate": name,
                    "parent": parent,
                    "calls": calls,
                    "seconds": seconds,
                    "items": items,
                }) + "\n")
