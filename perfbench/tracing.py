"""In-memory spans around the library's public functions, and the per-layer
metrics computed from them.

The wrappers are installed at run time from the benchmark's own files; the
library itself carries no tracing. A span records its name, start, end and
parent; a layer's self time is the time its spans cover minus the time
covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

#: (module, attribute path) of every wrapped callable, named by its layer.
TARGETS = (
    ("expr", "parse"),
    ("expr", "simplify"),
    ("expr", "differentiate"),
    ("expr", "evaluate"),
    ("representer", "from_spec"),
    ("representer", "function_from_source"),
    ("representer", "Representer.__call__"),
    ("representer", "Representer.values"),
    ("representer", "Representer.d1"),
    ("representer", "Representer.d2"),
    ("representer", "Representer.d1_values"),
    ("representer", "Representer.d2_values"),
    ("funcore", "RealFunction.__call__"),
    ("funcore", "RealFunction.values"),
    ("funcore", "RealFunction.derivative"),
    ("bohrmollerup", "evaluate"),
    ("bohrmollerup", "extended_state"),
    ("bohrmollerup", "extend"),
    ("bohrmollerup", "logconvexity_series"),
    ("convexity", "scan_convexity"),
    ("convexity", "q_determinant"),
    ("convexity", "d2_log"),
    ("special", "mellin_integral"),
    ("special", "gamma_quadrature"),
    ("special", "mellin_logconvex_probe"),
    ("cli", "main"),
    ("acceptance", "run_checks"),
)

LAYERS = ("expr", "representer", "funcore", "bohrmollerup", "convexity", "special", "cli", "acceptance")

CHECK_NAMES = ("gamma", "factorial", "cross-oracle", "sandwich", "series", "fibonacci",
               "convexity", "closure", "curvature", "divergence", "parser")


def _size(xs) -> int:
    return len(xs) if hasattr(xs, "__len__") else 1


def _on_evaluate(tr, idx, args, kwargs, out):
    tr.counts["terms"] += out.n
    tr.counts["states"] += 1
    tr.counts["converged"] += bool(out.converged)


def _on_values(tr, idx, args, kwargs, out):
    n = _size(args[1])
    tr.counts["values.elems"] += n
    parent = tr.spans[idx][3]
    if parent >= 0 and tr.spans[parent][0] == "bohrmollerup.logconvexity_series":
        tr.counts["series.terms"] += n


def _on_d_values(tr, idx, args, kwargs, out):
    tr.counts["d_values.elems"] += _size(args[1])


def _on_mellin(tr, idx, args, kwargs, out):
    tr.counts["panels"] += out.panels


def _on_scan(tr, idx, args, kwargs, out):
    tr.counts["scan.points"] += out.grid_n


def _on_main(tr, idx, args, kwargs, out):
    argv = args[0] if args else kwargs.get("argv")
    if argv and argv[0] == "report":
        tr.report_spans.add(idx)


def _on_checks(tr, idx, args, kwargs, out):
    tr.check_seconds.update((r.name, r.seconds) for r in out)


#: Counters updated from a call's arguments and result.
HOOKS = {
    "bohrmollerup.evaluate": _on_evaluate,
    "representer.Representer.values": _on_values,
    "representer.Representer.d1_values": _on_d_values,
    "representer.Representer.d2_values": _on_d_values,
    "special.mellin_integral": _on_mellin,
    "convexity.scan_convexity": _on_scan,
    "cli.main": _on_main,
    "acceptance.run_checks": _on_checks,
}


class Tracer:
    """Collects spans while installed; ``uninstall`` restores the originals."""

    def __init__(self):
        # each span: [name, start, end, parent index, outermost of its name]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.report_spans: set[int] = set()
        self.check_seconds: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        spans, stack, depth = self.spans, self.stack, self.depth
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, depth[name] == 0]
            spans.append(span)
            stack.append(idx)
            depth[name] += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                span[1] = start
                depth[name] -= 1
                stack.pop()
            if hook is not None:
                hook(tracer, idx, args, kwargs, out)
            return out

        return wrapper

    def install(self, package) -> None:
        """Wrap every target in every module of ``package`` that refers to it."""
        modules = [package] + [getattr(package, m) for m in LAYERS]
        for mod_name, path in TARGETS:
            mod = getattr(package, mod_name)
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                self._saved.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(name, orig))
                continue
            orig = getattr(mod, path)
            wrapped = self._wrap(name, orig)
            for m in modules:
                if getattr(m, path, None) is orig:
                    self._saved.append((m, path, orig))
                    setattr(m, path, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end (s), parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def layer_metrics(tr: Tracer, total_s: float) -> dict[str, float]:
    """Per-layer counts and times from the spans of one traced pass."""
    spans = tr.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    incl = defaultdict(float)    # time of the outermost spans of a name
    self_t = defaultdict(float)  # self time per span name
    layer_self = defaultdict(float)
    top = 0.0
    for i, (name, start, end, parent, outer) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        if outer:
            incl[name] += dur
        self_t[name] += dur - child[i]
        layer_self[name.split(".")[0]] += dur - child[i]
        if parent < 0:
            top += dur

    def per(total, n, scale):
        return total * scale / n if n else 0.0

    c = tr.counts
    terms = c["terms"]
    d_time = incl["representer.Representer.d1_values"] + incl["representer.Representer.d2_values"]
    report_self = sum(spans[i][2] - spans[i][1] - child[i] for i in tr.report_spans)
    extend_in_report = sum(1 for s in spans if s[0] == "bohrmollerup.extend" and s[3] in tr.report_spans)
    scalar = ("representer.Representer.__call__", "representer.Representer.d1", "representer.Representer.d2")

    m = {
        "bohrmollerup.evaluate.calls": calls["bohrmollerup.evaluate"],
        "bohrmollerup.evaluate.self_ms": self_t["bohrmollerup.evaluate"] * 1e3,
        "bohrmollerup.terms": terms,
        "bohrmollerup.ns_per_term": per(incl["bohrmollerup.evaluate"], terms, 1e9),
        "bohrmollerup.converged_frac": per(c["converged"], c["states"], 1.0),
        "bohrmollerup.extended_state.self_ms": self_t["bohrmollerup.extended_state"] * 1e3,
        "bohrmollerup.extend.calls": calls["bohrmollerup.extend"],
        "bohrmollerup.series.calls": calls["bohrmollerup.logconvexity_series"],
        "bohrmollerup.series.terms": c["series.terms"],
        "bohrmollerup.series.ns_per_term": per(incl["bohrmollerup.logconvexity_series"], c["series.terms"], 1e9),
        "representer.values.calls": calls["representer.Representer.values"],
        "representer.values.elems": c["values.elems"],
        "representer.values.ns_per_elem": per(incl["representer.Representer.values"], c["values.elems"], 1e9),
        "representer.d_values.ns_per_elem": per(d_time, c["d_values.elems"], 1e9),
        "representer.scalar.calls": sum(calls[k] for k in scalar),
        "representer.scalar_us": per(sum(incl[k] for k in scalar), sum(calls[k] for k in scalar), 1e6),
        "representer.build_ms": (incl["representer.from_spec"] + incl["representer.function_from_source"]) * 1e3,
        "expr.parse_ms": incl["expr.parse"] * 1e3,
        "expr.simplify_ms": incl["expr.simplify"] * 1e3,
        "expr.diff_ms": incl["expr.differentiate"] * 1e3,
        "expr.evaluate.calls": calls["expr.evaluate"],
        "expr.evaluate_us": per(incl["expr.evaluate"], calls["expr.evaluate"], 1e6),
        "funcore.call.calls": calls["funcore.RealFunction.__call__"],
        "funcore.call_us": per(incl["funcore.RealFunction.__call__"], calls["funcore.RealFunction.__call__"], 1e6),
        "funcore.derivative_us": per(incl["funcore.RealFunction.derivative"],
                                     calls["funcore.RealFunction.derivative"], 1e6),
        "convexity.scan.points": c["scan.points"],
        "convexity.scan.self_ms": self_t["convexity.scan_convexity"] * 1e3,
        "convexity.q_determinant_us": per(incl["convexity.q_determinant"], calls["convexity.q_determinant"], 1e6),
        "convexity.d2_log_us": per(incl["convexity.d2_log"], calls["convexity.d2_log"], 1e6),
        "special.quadrature.calls": calls["special.mellin_integral"],
        "special.quadrature.panels": c["panels"],
        "special.quadrature.us_per_panel": per(incl["special.mellin_integral"], c["panels"], 1e6),
        "special.mellin_probe_ms": per(incl["special.mellin_logconvex_probe"],
                                       calls["special.mellin_logconvex_probe"], 1e3),
        "cli.report.self_ms": report_self * 1e3,
        "cli.report.extend_calls": extend_in_report,
    }
    for name in CHECK_NAMES:
        m[f"acceptance.{name}_s"] = tr.check_seconds.get(name, 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = layer_self[layer] * 1e3
    m["bench.self_ms"] = (total_s - top) * 1e3
    return m
