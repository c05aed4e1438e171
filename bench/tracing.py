"""Span recorder for the traced run, installed from outside the package.

The recorder replaces each traced function at the module attribute its
caller looks it up from, so the package code runs unchanged, and puts the
originals back on ``restore``.  Each span holds its name, start, end,
parent span, op id, the exception type that ended it (if any) and a note
taken from the result (a term count, a Newton outcome).  Spans stay in
memory and are written out once at the end.

The recorder keeps one stack, so it assumes one thread; the traced ops all
run with ``threads=1``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

from workloads import EVALUATORS

# (metric, unit, better, what it should move).  The benchmark's traced run
# reports exactly these, per traced op unless the unit says otherwise.
LAYER_METRICS = (
    ("admissible.calls", "calls/op", "lower",
     "converge-tables: latency_p50_ms, ops_per_s"),
    ("admissible.busy_s", "s/op", "lower",
     "converge-tables: latency_p50_ms, ops_per_s"),
    ("admissible.cache_hit_ratio", "1", "higher",
     "converge-tables: latency_p50_ms, ops_per_s"),
    ("admissible.setup_busy_s", "s", "lower",
     "eval-large-n: setup_s, peak_rss_mb"),
    ("representations.calls", "calls/op", "lower",
     "eval-large-n: latency_p50_ms, latency_p90_ms, ops_per_s"),
    ("representations.busy_s", "s/op", "lower",
     "eval-large-n: latency_p50_ms, latency_p90_ms, ops_per_s"),
    ("representations.terms", "terms/op", "lower",
     "eval-large-n: latency_p50_ms, latency_p90_ms, ops_per_s"),
    ("representations.ns_per_term", "ns", "lower",
     "eval-large-n: latency_p50_ms, latency_p90_ms, ops_per_s"),
    ("representations.self_s", "s/op", "lower",
     "eval-large-n: latency_p50_ms, latency_p90_ms, ops_per_s"),
    ("representations.gate_calls", "calls/op", "lower",
     "eval-large-n: latency_p50_ms, latency_p90_ms"),
    ("representations.gate_s", "s/op", "lower",
     "eval-large-n: latency_p50_ms, latency_p90_ms"),
    ("representations.gate_rejections", "count/op", "higher",
     "eval-large-n: latency_p50_ms, latency_p90_ms"),
    ("bernoulli.table_calls", "calls/op", "lower",
     "converge-tables: latency_p90_ms; eval-large-n: Bernoulli ops"),
    ("bernoulli.busy_s", "s/op", "lower",
     "converge-tables: latency_p90_ms; eval-large-n: Bernoulli ops"),
    ("reference.calls", "calls/op", "lower",
     "converge-tables: no change expected"),
    ("reference.busy_s", "s/op", "lower",
     "converge-tables: no change expected"),
    ("rootfind.newton_calls", "calls/op", "lower",
     "zeros-strip: latency_p50_ms, ops_per_s"),
    ("rootfind.newton_busy_s", "s/op", "lower",
     "zeros-strip: latency_p50_ms, ops_per_s"),
    ("rootfind.newton_converged_ratio", "1", "higher",
     "zeros-strip: latency_p50_ms, ops_per_s"),
    ("rootfind.newton_failures.pole", "count/op", "lower",
     "zeros-strip: latency_p50_ms, ops_per_s"),
    ("rootfind.newton_failures.stagnation", "count/op", "lower",
     "zeros-strip: latency_p50_ms, ops_per_s"),
    ("rootfind.newton_failures.escape", "count/op", "lower",
     "zeros-strip: latency_p50_ms, ops_per_s"),
    ("rootfind.newton_failures.max-iter", "count/op", "lower",
     "zeros-strip: latency_p50_ms, ops_per_s"),
    ("rootfind.winding_calls", "calls/op", "lower",
     "zeros-strip: latency_p50_ms, latency_p90_ms"),
    ("rootfind.winding_busy_s", "s/op", "lower",
     "zeros-strip: latency_p50_ms, latency_p90_ms"),
    ("rootfind.winding_refusals", "count/op", "lower",
     "zeros-strip: latency_p50_ms, latency_p90_ms"),
    ("rootfind.roots", "roots/op", "higher", "zeros-strip"),
    ("rootfind.roots_unverified", "roots/op", "lower", "zeros-strip"),
    ("rootfind.self_s", "s/op", "lower", "zeros-strip"),
    ("cli.calls", "calls/op", "lower", "converge-tables: latency_p50_ms"),
    ("cli.self_s", "s/op", "lower", "converge-tables: latency_p50_ms"),
    ("cli.rows", "rows/op", "higher", "converge-tables: latency_p50_ms"),
    ("trace.overhead_ratio", "1", "higher",
     "traced ops_per_s / untraced ops_per_s on the same ops"),
)

EVALUATOR_NAMES = frozenset(EVALUATORS.values())


def _term_count(result):
    return result.term_count


def _newton_outcome(result):
    return getattr(result, "reason", "root")


# (module, attribute, note taken from the result)
TRACED = (
    ("zetasieve.representations", "admissible_up_to", None),
    ("zetasieve.representations", "nearest_pole", None),
    ("zetasieve.representations", "bernoulli_table", None),
    ("zetasieve.cli", "reference_zeta", None),
    ("zetasieve.cli", "zeta_bernoulli_partial", _term_count),
    ("zetasieve.rootfind", "newton_refine", _newton_outcome),
    ("zetasieve.rootfind", "winding_count", None),
    ("zetasieve.rootfind", "admissible_up_to", None),
)

NAME, START, END, PARENT, OP, ERROR, NOTE = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, None, None])
        self._stack.append(index)
        return index

    def close(self, index: int, error=None, note=None) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[ERROR] = None if error is None else type(error).__name__
        span[NOTE] = note
        self._stack.pop()

    def _wrapper(self, name, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(index, error=exc)
                raise
            self.close(index, note=note(result) if note else None)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, note in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(attr, original, note))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op", "error", "note"]))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span[START]
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(span[END] - span[START] - covered)
    return out


def layer_metrics(spans, ops: int, extra: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of `ops` traced ops.

    `extra` carries what spans cannot see: the admissible cache counters,
    the rows and roots the ops returned, and the overhead ratio.
    """
    own = self_times(spans)
    count: dict[str, float] = {}
    busy: dict[str, float] = {}
    selfs: dict[str, float] = {}
    notes: dict[tuple, float] = {}
    errors: dict[tuple, float] = {}

    def add(table, key, value):
        table[key] = table.get(key, 0.0) + value

    terms = 0.0
    for span, self_s in zip(spans, own):
        if span[OP] == "setup":
            if span[NAME] == "admissible_up_to":
                add(busy, "setup.admissible", span[END] - span[START])
            continue
        name = "evaluator" if span[NAME] in EVALUATOR_NAMES else span[NAME]
        add(count, name, 1)
        add(busy, name, span[END] - span[START])
        add(selfs, name, self_s)
        if span[ERROR]:
            add(errors, (name, span[ERROR]), 1)
        if name == "evaluator" and isinstance(span[NOTE], int):
            terms += span[NOTE]
        elif span[NOTE] is not None:
            add(notes, (name, span[NOTE]), 1)

    per = 1.0 / max(ops, 1)
    newton = count.get("newton_refine", 0.0)
    hits, misses = extra["admissible_hits"], extra["admissible_misses"]
    out = {
        "admissible.calls": count.get("admissible_up_to", 0.0) * per,
        "admissible.busy_s": busy.get("admissible_up_to", 0.0) * per,
        "admissible.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "admissible.setup_busy_s": busy.get("setup.admissible", 0.0),
        "representations.calls": count.get("evaluator", 0.0) * per,
        "representations.busy_s": busy.get("evaluator", 0.0) * per,
        "representations.terms": terms * per,
        "representations.ns_per_term": (
            busy.get("evaluator", 0.0) / terms * 1e9 if terms else 0.0
        ),
        "representations.self_s": selfs.get("evaluator", 0.0) * per,
        "representations.gate_calls": count.get("nearest_pole", 0.0) * per,
        "representations.gate_s": busy.get("nearest_pole", 0.0) * per,
        "representations.gate_rejections": (
            errors.get(("evaluator", "PoleProximityError"), 0.0) * per
        ),
        "bernoulli.table_calls": count.get("bernoulli_table", 0.0) * per,
        "bernoulli.busy_s": busy.get("bernoulli_table", 0.0) * per,
        "reference.calls": count.get("reference_zeta", 0.0) * per,
        "reference.busy_s": busy.get("reference_zeta", 0.0) * per,
        "rootfind.newton_calls": newton * per,
        "rootfind.newton_busy_s": busy.get("newton_refine", 0.0) * per,
        "rootfind.newton_converged_ratio": (
            notes.get(("newton_refine", "root"), 0.0) / newton if newton else 0.0
        ),
        "rootfind.winding_calls": count.get("winding_count", 0.0) * per,
        "rootfind.winding_busy_s": busy.get("winding_count", 0.0) * per,
        "rootfind.winding_refusals": (
            errors.get(("winding_count", "ResolutionError"), 0.0)
            + errors.get(("winding_count", "ContourError"), 0.0)
        )
        * per,
        "rootfind.roots": extra.get("roots", 0.0) * per,
        "rootfind.roots_unverified": extra.get("roots_unverified", 0.0) * per,
        "rootfind.self_s": selfs.get("find_zeros", 0.0) * per,
        "cli.calls": count.get("cli.main", 0.0) * per,
        "cli.self_s": selfs.get("cli.main", 0.0) * per,
        "cli.rows": extra.get("rows", 0.0) * per,
        "trace.overhead_ratio": extra["overhead_ratio"],
    }
    for reason in ("pole", "stagnation", "escape", "max-iter"):
        out[f"rootfind.newton_failures.{reason}"] = (
            notes.get(("newton_refine", reason), 0.0) * per
        )
    return {name: out[name] for name, *_ in LAYER_METRICS}
