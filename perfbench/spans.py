"""Spans around calls into esskit's layers, recorded from outside the package.

Only the traced run installs the wrappers: :func:`install` replaces public
module functions with timing wrappers, and :func:`uninstall` puts the
originals back. A span records its name, start, end, parent span and
operation id; spans stay in memory until the run writes them out.

Two spans are opaque: nothing called inside them is recorded. They are
``render.export_json``, whose internal ``resolve`` is invisible from outside
and so counts as export time, and the enactment spans, where a span per
step would cost more than the step.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

LAYERS = ("cli", "dsl", "model", "validator", "lint", "togaf", "render", "progress")
COUNTS = ("tokens", "bytes_in", "elements", "diagnostics", "diagnostics.L001",
          "diagnostics.L002", "diagnostics.L003", "diagnostics.L004",
          "activities_mapped", "bytes_out", "steps", "errors")

# Exceptions that mean a layer failed on input the generator made valid.
_ERROR_LAYERS = {"ParseError": "dsl", "ResolveError": "validator",
                 "MappingError": "togaf"}


class Tracer:
    """Span recorder. A disabled tracer calls straight through."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op, n]
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._opaque = 0

    def call(self, name: str, fn, *args, n: int = 0, opaque: bool = False, **kwargs):
        """Run ``fn`` inside a span; ``n`` is a work count kept on the span."""
        if not self.enabled or self._opaque:
            return fn(*args, **kwargs)
        index = len(self.spans)
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op, n]
        self.spans.append(span)
        self._stack.append(index)
        self._opaque += opaque
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception as failure:
            layer = _ERROR_LAYERS.get(type(failure).__name__)
            if layer:
                self.counts[f"{layer}.errors"] += 1
            raise
        finally:
            span[2] = time.perf_counter_ns()
            self._opaque -= opaque
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op, n in self.spans:
                out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                      "parent": parent, "op": op, "n": n}) + "\n")


def _counted(tracer: Tracer, name: str, fn, count=None, opaque=False):
    def wrapper(*args, **kwargs):
        if not tracer.enabled or tracer._opaque:
            return fn(*args, **kwargs)
        # A visitation span carries its step count, for the per-step cost.
        n = args[1] if name == "progress.visitation" else 0
        result = tracer.call(name, fn, *args, n=n, opaque=opaque, **kwargs)
        if count is not None:
            count(tracer.counts, args, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _add(key: str, amount):
    """A counter adding ``amount(args, result)`` to ``counts[key]``."""
    def count(counts, args, result):
        counts[key] += amount(args, result)
    return count


_elements = _add("model.elements", lambda args, document: sum(1 for _ in document.walk()))
_bytes_out = _add("render.bytes_out", lambda args, text: len(text.encode("utf-8")))


def _rules(counts, args, diagnostics):
    for diagnostic in diagnostics:
        counts[f"lint.diagnostics.{diagnostic.rule}"] += 1


def _mapped(counts, args, practice):
    stack = list(practice.members)
    while stack:
        member = stack.pop()
        if member.kind == "activity":
            counts["togaf.activities_mapped"] += 1
        else:
            stack.extend(member.members)


def _patches(esskit):
    """(module, attribute, span name, counter, opaque) for every wrapped call."""
    cli, dsl, model = esskit["cli"], esskit["dsl"], esskit["model"]
    validator, lint, togaf = esskit["validator"], esskit["lint"], esskit["togaf"]
    render, progress = esskit["render"], esskit["progress"]
    return (
        (cli, "run", "cli.run", None, False),
        (cli, "merge", "model.merge", _elements, False),
        (dsl, "tokenize", "dsl.tokenize", _add("dsl.tokens", lambda a, r: len(r)), False),
        (dsl, "parse", "dsl.parse",
         _add("dsl.bytes_in", lambda a, r: len(a[0].encode("utf-8"))), False),
        # dsl.parse builds the document index through this name.
        (dsl, "ModelDocument", "model.index", _elements, False),
        (model, "merge", "model.merge", _elements, False),
        (model, "iter_elements", "model.iter_elements", None, False),
        (validator, "resolve", "validator.resolve", None, False),
        (validator, "check", "validator.check", None, False),
        (validator, "check_wellformedness", "validator.wellformed",
         _add("validator.diagnostics", lambda a, r: len(r)), False),
        (lint, "run_lints", "lint.run", _rules, False),
        (togaf, "map_phase", "togaf.map", _mapped, False),
        (togaf, "phase_labels", "togaf.phase_labels", None, False),
        (render, "render_canonical", "render.canonical", _bytes_out, False),
        (render, "export_json", "render.export_json", _bytes_out, True),
        (render, "export_dot", "render.export_dot", _bytes_out, False),
        (progress, "visitation", "progress.visitation",
         _add("progress.steps", lambda a, r: len(r)), True),
    )


def install(tracer: Tracer, esskit: dict) -> list:
    """Wrap esskit's public calls; returns what :func:`uninstall` needs."""
    saved = []
    for module, attribute, name, count, opaque in _patches(esskit):
        if not hasattr(module, attribute):
            continue  # a later version may drop or rename the call
        original = getattr(module, attribute)
        saved.append((module, attribute, original))
        setattr(module, attribute, _counted(tracer, name, original, count, opaque))
    return saved


def uninstall(saved: list) -> None:
    for module, attribute, original in reversed(saved):
        setattr(module, attribute, original)


def layer_table(tracer: Tracer, ops: int) -> tuple[dict, list[str]]:
    """Per-layer metrics per operation, and the table printed beside them.

    Busy time counts a layer's outermost spans; self time subtracts the
    spans called inside each span, whatever their layer.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent, op, n in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = defaultdict(int)
    busy = defaultdict(int)
    self_ns = defaultdict(int)
    by_name = defaultdict(int)
    self_by_name = defaultdict(int)
    steps = {"short": [0, 0], "long": [0, 0]}
    for index, (name, start, end, parent, op, n) in enumerate(spans):
        layer = name.split(".", 1)[0]
        if layer not in LAYERS:
            continue
        duration = end - start
        calls[layer] += 1
        by_name[name] += duration
        self_by_name[name] += duration - child_ns[index]
        self_ns[layer] += duration - child_ns[index]
        ancestor = parent
        while ancestor >= 0 and not spans[ancestor][0].startswith(layer + "."):
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            busy[layer] += duration
        if name in ("progress.visitation", "progress.trace") and n:
            kind = "short" if n <= 100 else "long" if n >= 4000 else None
            if kind:
                steps[kind][0] += duration
                steps[kind][1] += n

    seen = sorted(by_name)
    per_op = max(ops, 1)

    def ms(ns: float) -> float:
        return ns / 1e6 / per_op

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer] / per_op
        metrics[f"{layer}.busy_ms"] = ms(busy[layer])
        metrics[f"{layer}.self_ms"] = ms(self_ns[layer])
    counts = tracer.counts
    lookups = counts.get("model.lookups", 0)
    metrics.update({
        "cli.run_ms": ms(by_name["cli.run"]),
        "dsl.tokenize_ms": ms(by_name["dsl.tokenize"]),
        "dsl.parse_self_ms": ms(self_by_name["dsl.parse"]),
        "dsl.tokens": counts["dsl.tokens"] / per_op,
        "dsl.tokens_per_s": (counts["dsl.tokens"] / (by_name["dsl.tokenize"] / 1e9)
                             if by_name["dsl.tokenize"] else 0.0),
        "dsl.bytes_in": counts["dsl.bytes_in"] / per_op,
        "model.index_ms": ms(by_name["model.index"]),
        "model.merge_ms": ms(by_name["model.merge"]),
        "model.elements": counts["model.elements"] / per_op,
        "model.iter_elements_ms": ms(by_name["model.iter_elements"]),
        "model.lookup_us": (by_name["model.lookup"] / 1e3 / lookups) if lookups else 0.0,
        "validator.resolve_ms": ms(by_name["validator.resolve"]),
        "validator.wellformed_ms": ms(by_name["validator.wellformed"]),
        "validator.diagnostics": counts["validator.diagnostics"] / per_op,
        "lint.run_ms": ms(by_name["lint.run"]),
        "togaf.map_ms": ms(by_name["togaf.map"]),
        "togaf.activities_mapped": counts["togaf.activities_mapped"] / per_op,
        "render.canonical_ms": ms(by_name["render.canonical"]),
        "render.export_json_ms": ms(by_name["render.export_json"]),
        "render.export_dot_ms": ms(by_name["render.export_dot"]),
        "render.bytes_out": counts["render.bytes_out"] / per_op,
        "progress.visitation_ms": ms(by_name["progress.visitation"]),
        "progress.trace_ms": ms(by_name["progress.trace"]),
        "progress.steps": counts["progress.steps"] / per_op,
        "progress.us_per_step.short": (steps["short"][0] / 1e3 / steps["short"][1]
                                       if steps["short"][1] else 0.0),
        "progress.us_per_step.long": (steps["long"][0] / 1e3 / steps["long"][1]
                                      if steps["long"][1] else 0.0),
    })
    for rule in ("L001", "L002", "L003", "L004"):
        metrics[f"lint.diagnostics.{rule}"] = counts[f"lint.diagnostics.{rule}"] / per_op
    for layer in ("dsl", "validator", "togaf"):
        metrics[f"{layer}.errors"] = counts[f"{layer}.errors"]

    rows = [f"{'layer':<10} {'calls/op':>10} {'busy ms/op':>12} {'self ms/op':>12}"]
    for layer in LAYERS:
        rows.append(f"{layer:<10} {metrics[f'{layer}.calls']:>10.2f} "
                    f"{metrics[f'{layer}.busy_ms']:>12.3f} {metrics[f'{layer}.self_ms']:>12.3f}")
    rows.append(f"{'span':<26} {'total ms/op':>12} {'self ms/op':>12}")
    for name in seen:
        rows.append(f"{name:<26} {ms(by_name[name]):>12.3f} {ms(self_by_name[name]):>12.3f}")
    rows.append("counts per operation: " + ", ".join(
        f"{name} {value:g}" for name, value in metrics.items()
        if value and name.split(".", 1)[1] in COUNTS))
    return metrics, rows
