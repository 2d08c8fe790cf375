"""Per-layer tracing of tabaconv from outside the program.

A Tracer replaces functions of the tabaconv modules with timing wrappers,
at the name each caller looks them up under (``tabaconv.cli.make_windows``,
``tabaconv.training.forward_mdm``, ``tabaconv.tensor.conv1d``, ...), and
puts every original back when its ``with`` block ends. Spans are kept in
memory as ``[group, label, start, end, parent, kind]`` and summarised
once per traced command by :func:`summarise`. Nothing under ``src/`` is
edited and the wrapped functions' results are returned untouched, so a
traced command computes bit-identical losses.

Every ``<layer>.<name>.s`` metric is inclusive: the union of the
outermost spans of that group, nested calls included. ``self_s`` metrics
are a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

# Tensor ops whose calls, forward time and backward time are reported.
REPORTED_OPS = ("conv1d", "matmul", "embedding", "gather_bt", "add", "mul", "scale",
                "layer_norm", "softmax_lastdim", "cross_entropy_sum", "relu", "dropout")
# Every graph-building op of tabaconv.tensor; all of them count as graph nodes.
ALL_OPS = REPORTED_OPS + ("shift", "concat_lastdim", "mean_axis", "sum_all", "mean_all",
                          "reshape", "transpose", "bce_with_logits_sum")

COMMANDS = ("pretrain", "finetune", "evaluate")

# (module, attribute, span group) for every non-op function that is wrapped.
LAYER_TARGETS = (
    [("cli", f"cmd_{c}", f"cli.{c}") for c in COMMANDS]
    + [("cli", "read_csv", "schema.read_csv"), ("schema", "read_csv", "schema.read_csv"),
       ("cli", "infer_schema", "schema.infer_schema"),
       ("cli", "group_rows_by_user", "schema.group_rows_by_user"),
       ("cli", "make_windows", "schema.make_windows"),
       ("training", "sample_mask_plan", "masking.sample_mask_plan"),
       ("training", "apply_mask", "masking.apply_mask"),
       ("cli", "pretrain", "training.loop"), ("cli", "finetune", "training.loop"),
       ("cli", "evaluate", "training.loop"),
       ("training", "masked_batch", "training.data"), ("training", "stack_batch", "training.data"),
       ("training", "mdm_loss", "training.loss"), ("training", "bce_loss", "training.loss"),
       ("training", "clip_global_norm", "training.optimizer"),
       ("training", "adam_step", "training.optimizer"),
       ("training", "mdm_batch_stats", "training.stats"),
       ("training", "predict_proba", "training.eval"),
       ("cli", "save_checkpoint", "training.checkpoint"),
       ("cli", "load_checkpoint", "training.checkpoint"),
       ("training", "forward_mdm", "model.forward"),
       ("training", "forward_classify", "model.forward"),
       ("model", "embed_inputs", "model.embed_inputs"),
       ("model", "encoder_forward", "model.encoder_forward"),
       ("model", "pretrain_heads", "model.heads"), ("model", "classify_logits", "model.heads")]
)

INCLUSIVE_GROUPS = ("schema.read_csv", "schema.infer_schema", "schema.group_rows_by_user",
                    "schema.make_windows", "masking.sample_mask_plan", "masking.apply_mask",
                    "training.data", "training.loss", "training.backward", "training.optimizer",
                    "training.stats", "training.eval", "training.checkpoint", "model.forward",
                    "model.embed_inputs", "model.encoder_forward", "model.heads")

LAYER, OP, BWD = 0, 1, 2
GROUP, LABEL, START, END, PARENT, KIND = range(6)


def metric_units() -> dict[str, str]:
    """Every per-command metric :func:`summarise` returns, with its unit."""
    units = {f"cli.{c}.self_s": "s" for c in COMMANDS}
    units.update({f"{g}.s": "s" for g in INCLUSIVE_GROUPS})
    units.update({
        "schema.windows_made": "count", "schema.rows_read_ratio": "ratio",
        "masking.masked_cell_ratio": "ratio", "training.loop.self_s": "s",
        "training.steps": "count", "training.step_ms_p50": "ms", "training.step_ms_p90": "ms",
        "tensor.nodes_per_step": "count",
    })
    for op in REPORTED_OPS:
        units.update({f"tensor.{op}.calls": "count", f"tensor.{op}.fwd_s": "s",
                      f"tensor.{op}.bwd_s": "s"})
    return units


class Tracer:
    """Installs the wrappers while its ``with`` block is open."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.rows_read = 0
        self.windows_made = 0
        self.masked_cells = 0
        self.mask_cells = 0

    # -- span recording -------------------------------------------------
    def _enter(self, group: str, label: str, kind: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([group, label, time.perf_counter(), 0.0, parent, kind])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _traced(self, fn, group: str, label: str, kind: int, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._enter(group, label, kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- counters fed from wrapped results ------------------------------
    def _count_rows(self, args, result) -> None:
        self.rows_read += len(result[1])

    def _count_windows(self, args, result) -> None:
        self.windows_made += len(result)

    def _count_mask(self, args, result) -> None:
        self.masked_cells += int(result.field_mask.sum())
        self.mask_cells += result.field_mask.size

    def _op_after(self, op: str):
        bwd_group = f"tensor.{op}.bwd"

        def after(args, out):
            backward = getattr(out, "_backward", None)
            if backward is None or any(out is a for a in args):
                return  # no new node (e.g. dropout at eval returns its input)
            out._backward = self._traced(backward, bwd_group, op, BWD)

        return after

    # -- install / remove -------------------------------------------------
    def __enter__(self) -> "Tracer":
        from tabaconv import cli, model, schema, tensor, training

        modules = {"cli": cli, "model": model, "schema": schema, "training": training}
        counters = {"schema.read_csv": self._count_rows,
                    "schema.make_windows": self._count_windows,
                    "masking.sample_mask_plan": self._count_mask}
        for mod, attr, group in LAYER_TARGETS:
            owner = modules[mod]
            fn = getattr(owner, attr)
            self._patch(owner, attr, self._traced(fn, group, attr, LAYER, counters.get(group)))
        self._patch(tensor.Tensor, "backward",
                    self._traced(tensor.Tensor.backward, "training.backward", "backward", LAYER))
        for op in ALL_OPS:
            fn = getattr(tensor, op)
            self._patch(tensor, op, self._traced(fn, f"tensor.{op}", op, OP, self._op_after(op)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def summarise(tracer: Tracer, csv_rows: int) -> dict[str, float]:
    """Per-layer metrics of one traced command; `csv_rows` is its input's row count."""
    spans = tracer.spans
    durations = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    enclosing: list[frozenset] = []  # groups of each span's ancestors
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    nodes = 0
    for i, s in enumerate(spans):
        group, p = s[GROUP], s[PARENT]
        outer = enclosing[p] | {spans[p][GROUP]} if p >= 0 else frozenset()
        enclosing.append(outer)
        if p >= 0:
            child_time[p] += durations[i]
        if group not in outer:
            totals[group] += durations[i]
        if s[KIND] == OP:
            calls[group] += 1
            nodes += "training.loop" in outer and "training.eval" not in outer
    self_s: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s[GROUP].startswith("cli.") or s[GROUP] == "training.loop":
            self_s[s[GROUP]] += durations[i] - child_time[i]

    steps = _step_times_ms([s for s in spans
                            if s[PARENT] >= 0 and spans[s[PARENT]][GROUP] == "training.loop"])
    out = {f"cli.{c}.self_s": self_s[f"cli.{c}"] for c in COMMANDS}
    out.update({f"{g}.s": totals[g] for g in INCLUSIVE_GROUPS})
    out.update({
        "schema.windows_made": tracer.windows_made,
        "schema.rows_read_ratio": tracer.rows_read / csv_rows,
        "masking.masked_cell_ratio": tracer.masked_cells / tracer.mask_cells if tracer.mask_cells else 0.0,
        "training.loop.self_s": self_s["training.loop"],
        "training.steps": len(steps),
        "training.step_ms_p50": _percentile(steps, 50),
        "training.step_ms_p90": _percentile(steps, 90),
        "tensor.nodes_per_step": nodes / len(steps) if steps else 0.0,
    })
    for op in REPORTED_OPS:
        out[f"tensor.{op}.calls"] = calls[f"tensor.{op}"]
        out[f"tensor.{op}.fwd_s"] = totals[f"tensor.{op}"]
        out[f"tensor.{op}.bwd_s"] = totals[f"tensor.{op}.bwd"]
    return out


def _step_times_ms(loop_children: list[list]) -> list[float]:
    """A step runs from its batch assembly to the end of its Adam update."""
    steps, start = [], None
    for s in loop_children:
        if s[GROUP] == "training.data" and start is None:
            start = s[START]
        elif s[LABEL] == "adam_step" and start is not None:
            steps.append((s[END] - start) * 1e3)
            start = None
    return steps


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
