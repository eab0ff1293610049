"""Span tracing of text2vis's public functions, applied from outside the package.

`Tracer.install()` replaces each function named in `SPANS` with a wrapper,
as a module attribute or a class attribute.  The package calls its own
functions through those same attributes (`nn.forward_batch`, a global
`tokenize` inside `textvec`, `Adam.step` on the class), so calls made from
inside the package are caught too.  `Tracer.uninstall()` puts the originals
back.

Spans are kept in memory as (name, start_ns, end_ns, parent, run_id) and
written out by `write_spans`.  A span's self time is its duration minus the
durations of its direct children.  Counters that feed the ratio metrics are
gathered by the same wrappers, where the work happens.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

from text2vis import cli, data, evaluation, nn, optim, retrieval, textvec

# (span name, owner, attribute).  Adam.step is one attribute that yields three
# spans; the parameter keys of the call pick the group.
SPANS = [
    ("cli.cmd_eval", cli, "cmd_eval"),
    ("cli.cmd_search", cli, "cmd_search"),
    ("data.load_captions", data, "load_captions"),
    ("data.load_features", data, "load_features"),
    ("textvec.tokenize", textvec, "tokenize"),
    ("textvec.build_vocabulary", textvec, "build_vocabulary"),
    ("textvec.Vocabulary.encode_text", textvec.Vocabulary, "encode_text"),
    ("nn.init_model", nn, "init_model"),
    ("nn.load_checkpoint", nn, "load_checkpoint"),
    ("nn.save_checkpoint", nn, "save_checkpoint"),
    ("nn.forward", nn, "forward"),
    ("nn.forward_batch", nn, "forward_batch"),
    ("nn.hidden_batch", nn, "hidden_batch"),
    ("nn.backward_visual_batch", nn, "backward_visual_batch"),
    ("nn.backward_text_batch", nn, "backward_text_batch"),
    ("nn.backward_joint_batch", nn, "backward_joint_batch"),
    ("optim.encode_dataset", optim, "encode_dataset"),
    ("optim.sl_train", optim, "sl_train"),
    ("optim.aggregated_train", optim, "aggregated_train"),
    ("optim.visreg_train", optim, "visreg_train"),
    ("optim.Adam.step", optim.Adam, "step"),
    ("retrieval.build_index", retrieval, "build_index"),
    ("retrieval.query", retrieval, "query"),
    ("evaluation.evaluate", evaluation, "evaluate"),
    ("evaluation.relevance", evaluation, "relevance"),
    ("evaluation.dcg", evaluation, "dcg"),
    ("evaluation.rrank_ranking", evaluation, "rrank_ranking"),
]

ADAM_GROUPS = ("optim.Adam.step.visual", "optim.Adam.step.text", "optim.Adam.step.all")

# Every span name reported, in report order.
SPAN_NAMES = [name for name, _, _ in SPANS if name != "optim.Adam.step"] + list(ADAM_GROUPS)

# Spans called often enough that a per-call median means something.
HOT_SPANS = [
    "cli.cmd_search", "data.load_features", "textvec.tokenize",
    "textvec.Vocabulary.encode_text", "nn.load_checkpoint", "nn.forward",
    "nn.forward_batch", "nn.hidden_batch", "nn.backward_visual_batch",
    "nn.backward_text_batch", "nn.backward_joint_batch", *ADAM_GROUPS,
    "retrieval.build_index", "retrieval.query", "evaluation.relevance",
    "evaluation.dcg",
]

# Counting work for the ratio metrics runs in a span of its own, so the
# caller's self time leaves it out.
COUNTER_SPAN = "tracing.counters"


def adam_group(params: dict) -> str:
    """The Adam span of a step, told apart by which heads its parameters hold."""
    if "w_vis" in params and "w_txt" in params:
        return "optim.Adam.step.all"
    if "w_vis" in params:
        return "optim.Adam.step.visual"
    return "optim.Adam.step.text"


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        hooks = {
            "nn.hidden_batch": (self._count_active_inputs, None),
            "optim.Adam.step": (self._count_w_hid_rows, None),
            "evaluation.dcg": (self._count_ranked_entries, None),
            "retrieval.query": (self._count_query_scan, None),
            "data.load_features": (self._count_feature_file, None),
            "textvec.Vocabulary.encode_text": (None, self._count_oov_search),
        }
        for name, owner, attr in SPANS:
            original = owner.__dict__[attr]
            span_name = adam_group if name == "optim.Adam.step" else name
            before, after = hooks.get(name, (None, None))
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name, before, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, fn, span_name, before, after):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                record = [COUNTER_SPAN, clock(), 0, stack[-1] if stack else -1]
                before(args, kwargs)
                record[2] = clock()
                spans.append(record)
            name = span_name(args[1]) if callable(span_name) else span_name
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- counters ----------------------------------------------------------

    def _count_active_inputs(self, args, kwargs):
        inputs = args[1]
        self.counters["nn.input.active_cells"] += int(np.count_nonzero(inputs))
        self.counters["nn.input.cells"] += int(inputs.size)

    def _count_w_hid_rows(self, args, kwargs):
        params, grads = args[1], args[2]
        g = grads.get("w_hid")
        if g is None:
            return
        # w_hid is [hidden x vocab]: a vocabulary row is a column here.
        self.counters["optim.Adam.w_hid_rows_touched"] += int(np.any(g != 0, axis=0).sum())
        self.counters["optim.Adam.w_hid_rows"] += int(params["w_hid"].shape[1])

    def _count_ranked_entries(self, args, kwargs):
        rels = args[0]
        p = args[1] if len(args) > 1 else kwargs.get("p", evaluation.DEFAULT_RANK_CUTOFF)
        self.counters["evaluation.ranked_entries"] += min(len(rels), p)

    def _count_query_scan(self, args, kwargs):
        index = args[0]
        self.counters["retrieval.query.mb_scanned_total"] += index.size * index.dim * 8 / 1e6

    def _count_feature_file(self, args, kwargs):
        self.counters["data.load_features.mb_total"] += os.path.getsize(args[0]) / 1e6

    def _count_oov_search(self, args, result):
        if self._parent_name() == "cli.cmd_search":
            self.counters["search.queries"] += 1
            if not result.on_indices:
                self.counters["search.oov_queries"] += 1

    # -- reporting ---------------------------------------------------------

    def span_stats(self) -> dict[str, dict]:
        """Per span name: calls, inclusive ms, self ms and per-call ms list."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats = {name: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "per_call": []}
                 for name in SPAN_NAMES}
        for i, (name, start, end, _) in enumerate(self.spans):
            s = stats.get(name)
            if s is None:  # COUNTER_SPAN
                continue
            dur = end - start
            s["calls"] += 1
            s["ms"] += dur / 1e6
            s["self_ms"] += (dur - child_ns[i]) / 1e6
            s["per_call"].append(dur / 1e6)
        return stats

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent index, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent, self.run_id]))
                fh.write("\n")


def per_layer_metrics(tracer: Tracer, train_steps: dict[str, int],
                      overhead_frac: float) -> dict[str, dict]:
    """The per-layer metrics of a traced pass, every one present even if 0."""
    stats = tracer.span_stats()
    c = tracer.counters
    out: dict[str, dict] = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in SPAN_NAMES:
        s = stats[name]
        put(f"{name}.calls", s["calls"], "count")
        put(f"{name}.ms", s["ms"], "ms")
        put(f"{name}.self_ms", s["self_ms"], "ms")
        if name in HOT_SPANS:
            put(f"{name}.ms_p50", float(np.median(s["per_call"])) if s["per_call"] else 0.0,
                "ms")

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    put("nn.input.active_frac", ratio("nn.input.active_cells", "nn.input.cells"), "ratio")
    put("optim.Adam.w_hid_rows_touched_frac",
        ratio("optim.Adam.w_hid_rows_touched", "optim.Adam.w_hid_rows"), "ratio")
    ranked = c["evaluation.ranked_entries"]
    put("evaluation.relevance.reuse_frac",
        1.0 - stats["evaluation.relevance"]["calls"] / ranked if ranked else 0.0, "ratio")
    queries = stats["retrieval.query"]["calls"]
    put("retrieval.query.mb_scanned",
        c["retrieval.query.mb_scanned_total"] / queries if queries else 0.0, "MB-computed")
    loads = stats["data.load_features"]["calls"]
    put("data.load_features.mb",
        c["data.load_features.mb_total"] / loads if loads else 0.0, "MB")
    put("optim.visual_steps", train_steps.get("visual", 0), "count")
    put("optim.text_steps", train_steps.get("text", 0), "count")
    put("search.oov_query_frac", ratio("search.oov_queries", "search.queries"), "ratio")
    put("tracing.overhead_frac", overhead_frac, "ratio")
    return out
