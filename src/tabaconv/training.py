"""Pretraining and fine-tuning loops, optimizer, checkpointing.

The reconstruction loss is mean cross entropy over masked categorical cells
plus mean squared error over masked continuous cells plus the activity
penalty from the timestamp block; unmasked cells contribute nothing.
Fine-tuning freezes all embedding parameters (field embeddings, continuous
projections, timestamp block) and trains encoder blocks plus a fresh binary
classifier head; "scratch" mode trains the same architecture from random
init as the ablation control.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tt
from .errors import (
    ConfigError,
    ContractError,
    IntegrityError,
    NumericError,
    ShapeError,
    UnsupportedVersionError,
)
# re-exported for callers that look them up here: the benchmark tracer wraps apply_mask and
# sample_mask_plan, and the tests import f1_binary
from .masking import MaskConfig, apply_mask, field_masks, sample_mask_plan  # noqa: F401
from .metrics import auroc, f1_binary, precision_recall_f1  # noqa: F401
from .model import (
    Batch,
    ModelConfig,
    forward_classify,
    forward_mdm,
    init_params,
    trainable_names,
)
from .schema import MASK_ID, FeatureSchema, Windows
from .tensor import Tensor


# Adam's moment decays and denominator term, and the global gradient norm each step is clipped to
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_CLIP = 1.0


@dataclass
class TrainConfig:
    batch_size: int = 32
    epochs: int = 5
    learning_rate: float = 1e-3
    seed: int = 0
    mode: str = "pretrain"  # pretrain | finetune | scratch

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed (--seed) must be non-negative, got {self.seed}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size (--batch-size) must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs (--epochs) must be >= 0, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning rate (--lr) must be finite and positive, got {self.learning_rate}")
        if self.mode not in ("pretrain", "finetune", "scratch"):
            raise ConfigError(f"unknown mode {self.mode!r}")


# ---------------------------------------------------------------------------
# batch assembly
# ---------------------------------------------------------------------------


def stack_batch(windows: Windows) -> Batch:
    """Plain forward batch (no masking) of the windows, one take per row array; labels kept if any."""
    rows = windows.starts[:, None] + np.arange(windows.window)  # [B, T] rows of each window
    return Batch(
        cat=np.take(windows.cat, rows, axis=0),
        cont=np.take(windows.cont, rows, axis=0),
        ts_components=np.take(windows.comp, rows, axis=0),
        ts_floats=np.take(windows.tfl, rows, axis=0),
        labels=None if windows.labels is None else windows.labels.astype(np.float64),
    )


def masked_batch(samples: Windows, schema: FeatureSchema, cfg: MaskConfig,
                 epoch: int, sample_indices: list[int]) -> Batch:
    """Stacked batch masked with each sample's plan from its derived per-epoch stream.

    The masks are `field_masks` of the sample indices, which equal the
    per-sample `sample_mask_plan(..., rng_for_sample(cfg.seed, epoch, idx))`.
    """
    batch = stack_batch(samples)
    masks = field_masks(batch.cat.shape[1], schema, cfg, epoch, sample_indices)
    return _apply_field_masks(batch, masks, schema)


def _apply_field_masks(batch: Batch, field_mask: np.ndarray, schema: FeatureSchema) -> Batch:
    """Mask a stacked batch with its [B, T, n_mask_columns] field masks.

    The targets are the stacked originals; the inputs are those with every
    masked cell set to MASK_ID (categorical) or 0.0 (continuous), as
    `apply_mask` sets them one sample at a time.
    """
    expected = (*batch.cat.shape[:2], schema.n_mask_columns)
    if field_mask.shape != expected:
        raise ContractError(f"field masks of shape {field_mask.shape} do not match the batch {expected}")
    n_cat = len(schema.categorical_fields)
    batch.cat_mask, batch.cont_mask = field_mask[..., :n_cat], field_mask[..., n_cat:]
    batch.cat_targets, batch.cont_targets = batch.cat, batch.cont
    batch.cat = np.where(batch.cat_mask, batch.cat.dtype.type(MASK_ID), batch.cat)
    batch.cont = np.where(batch.cont_mask, batch.cont.dtype.type(0.0), batch.cont)
    return batch


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _head_columns(preds: Tensor | dict[str, Tensor],
                  schema: FeatureSchema) -> tuple[Tensor, list[tuple[int, int]], int]:
    """The [B, T, W] heads output, the categorical fields' column spans and the first continuous column.

    The spans follow the schema's vocab sizes, as `pretrain_heads` lays out
    its columns. A plain dict of per-field Tensors is joined into one with
    `concat_lastdim`, in the same column order, so both run the same loss code.
    """
    cat, cont = schema.categorical_fields, schema.continuous_fields
    widths = [f.vocab_size() for f in cat] + [1] * len(cont)
    if isinstance(preds, dict):
        got = [preds[f.name].shape[-1] for f in cat + cont]
        if got != widths:
            raise ShapeError(f"field predictions must be vocab_size() columns wide when categorical and "
                             f"one column wide when continuous: want {widths}, got {got}")
        preds = tt.concat_lastdim([preds[f.name] for f in cat + cont])
    elif preds.shape[-1] != sum(widths):
        raise ShapeError(f"heads output must be {sum(widths)} columns wide for this schema, "
                         f"got {preds.shape}")
    spans, hi = [], 0
    for width in widths[: len(cat)]:
        lo, hi = hi, hi + width
        spans.append((lo, hi))
    return preds, spans, hi


def mdm_loss_and_stats(preds: Tensor | dict[str, Tensor], batch: Batch, reg: Tensor,
                       schema: FeatureSchema) -> tuple[Tensor, dict]:
    """Masked-cell reconstruction loss and its accuracy/error counters, from one pass over the masked cells.

    A kind with zero masked cells adds 0 to the loss. A categorical cell is
    right when the argmax of its field's span equals its target; `cont_sse`
    is the summed squared error the loss divides by the continuous count.
    """
    total = reg
    n_cat = int(np.count_nonzero(batch.cat_mask)) if batch.cat_mask is not None else 0
    n_cont = int(np.count_nonzero(batch.cont_mask)) if batch.cont_mask is not None else 0
    stats = {"cat_total": n_cat, "cat_correct": 0, "cont_total": n_cont, "cont_sse": 0.0}
    if not (n_cat or n_cont):
        return total, stats
    fused, spans, cont_start = _head_columns(preds, schema)
    if n_cat:
        ce_sum, stats["cat_correct"] = tt.masked_cross_entropy_sum(fused, spans, batch.cat_targets,
                                                                   batch.cat_mask)
        total = tt.add(total, tt.scale(ce_sum, 1.0 / n_cat))
    if n_cont:
        se_sum = tt.masked_squared_error_sum(fused, cont_start, batch.cont_targets, batch.cont_mask)
        stats["cont_sse"] = float(se_sum.data)
        total = tt.add(total, tt.scale(se_sum, 1.0 / n_cont))
    return total, stats


def mdm_loss(preds: Tensor | dict[str, Tensor], batch: Batch, reg: Tensor, schema: FeatureSchema) -> Tensor:
    """Masked-cell reconstruction loss; a kind with zero masked cells contributes 0."""
    return mdm_loss_and_stats(preds, batch, reg, schema)[0]


def mdm_batch_stats(preds: Tensor | dict[str, Tensor], batch: Batch, schema: FeatureSchema) -> dict:
    """Reconstruction accuracy/error counters at masked cells; the loss they come with is dropped."""
    return mdm_loss_and_stats(preds, batch, Tensor(np.zeros(())), schema)[1]


def bce_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean binary cross entropy from logits (probability = sigmoid(logit))."""
    n = logits.data.size
    return tt.scale(tt.bce_with_logits_sum(logits, labels), 1.0 / n)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class AdamState:
    """Adam over one flat buffer that holds every trainable parameter.

    The constructor moves the named parameters' values into `data` and gives
    each one a `grad` view into a flat gradient buffer, so zeroing, the clip
    scaling, the non-finite check and the update are whole-buffer ops. Each
    slice holds one parameter, in name order. A tensor whose `data` or
    `grad` was rebound since is copied back in before the next clip or step
    (a `None` gradient counts as zero), so a rebinding is never trained past.
    """

    def __init__(self, params: dict[str, Tensor], names: list[str]):
        tensors = [params[n] for n in names]
        dtypes = {p.data.dtype for p in tensors}
        if len(dtypes) > 1:
            raise ContractError(f"parameters mix dtypes {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else tt.default_dtype()
        self.names = list(names)
        self.tensors = tensors
        self.bounds: list[tuple[int, int]] = []
        size = 0
        for p in tensors:
            self.bounds.append((size, size + p.data.size))
            size += p.data.size
        self.data = np.empty(size, dtype=dtype)
        self.grad = np.zeros(size, dtype=dtype)
        self.m = np.zeros(size, dtype=dtype)
        self.v = np.zeros(size, dtype=dtype)
        self.t = 0
        # scratch for the update, so that a step allocates no buffer-sized temporary; the clip
        # squares the gradients in float64 into the same bytes before the update needs them
        self.scratch = np.empty((2, size), dtype=dtype)
        self.squares = self.scratch.reshape(-1).view(np.float64)[:size]
        self.data_views = self._views(self.data)
        self.grad_views = self._views(self.grad)
        self.sync()  # moves the values in, and keeps any gradient that exists already

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[lo:hi].reshape(p.data.shape) for p, (lo, hi) in zip(self.tensors, self.bounds)]

    def zero_grad(self) -> None:
        """Zero the gradient buffer and point every parameter back at its view."""
        self.grad.fill(0)
        for p, grad in zip(self.tensors, self.grad_views):
            p.grad = grad

    def sync(self) -> None:
        """Copy any rebound `data` or `grad` into the buffers and point the tensor back at them."""
        for name, p, data, grad in zip(self.names, self.tensors, self.data_views, self.grad_views):
            if p.data is not data:
                data[...] = _same_shape(name, "value", p.data, data)
                p.data = data
            if p.grad is not grad:
                if p.grad is None:
                    grad.fill(0)
                else:
                    grad[...] = _same_shape(name, "gradient", p.grad, grad)
                p.grad = grad


def _same_shape(name: str, what: str, arr: np.ndarray, view: np.ndarray) -> np.ndarray:
    if arr.shape != view.shape:
        raise ContractError(f"parameter {name!r}: {what} of shape {arr.shape}, expected {view.shape}")
    return arr


def clip_global_norm(state: AdamState) -> float:
    """Scale the gradient buffer to a global norm of at most GRAD_CLIP; returns the norm before.

    The whole buffer is squared in float64 at once; each parameter's slice of
    the squares is summed on its own and the sums added in name order, which
    reproduces per-parameter summation bit for bit (a segmented
    `np.add.reduceat` does not).
    """
    state.sync()
    squares = np.square(state.grad, out=state.squares, dtype=np.float64)
    total = 0.0
    for lo, hi in state.bounds:
        total += float(np.add.reduce(squares[lo:hi]))  # ndarray.sum without its Python wrapper
    norm = math.sqrt(total)
    if norm > GRAD_CLIP:
        state.grad *= GRAD_CLIP / norm
    return norm


def adam_step(state: AdamState, cfg: TrainConfig) -> None:
    """Bias-corrected Adam update of the whole buffer in place."""
    state.sync()
    g = state.grad
    if not np.isfinite(g).all():
        bad = next(name for name, (lo, hi) in zip(state.names, state.bounds)
                   if not np.isfinite(g[lo:hi]).all())
        raise NumericError(f"non-finite gradient for parameter {bad!r}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    m, v, tmp, update = state.m, state.v, *state.scratch
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
    v *= ADAM_BETA2
    np.multiply(g, g, out=tmp)
    v += np.multiply(tmp, 1.0 - ADAM_BETA2, out=tmp)
    # update = lr * (m / c1) / (sqrt(v / c2) + eps), one operation at a time
    np.sqrt(np.divide(v, c2, out=tmp), out=tmp)
    tmp += ADAM_EPS
    np.divide(m, c1, out=update)
    update /= tmp
    update *= cfg.learning_rate
    state.data -= update


# ---------------------------------------------------------------------------
# checkpoints ("TACB1")
# ---------------------------------------------------------------------------

CKPT_MAGIC = b"TACB1"
CKPT_VERSION = 1
CKPT_DTYPES = ("float32", "float64")


@dataclass
class Checkpoint:
    model_config: ModelConfig
    schema_digest: str
    params: dict[str, np.ndarray]
    step: int = 0
    rng_info: dict = field(default_factory=dict)

    def tensors(self, trainable: set[str] | None = None) -> dict[str, Tensor]:
        """Materialize parameters; non-trainable names become frozen leaves."""
        return {name: Tensor(arr.copy(), requires_grad=trainable is None or name in trainable)
                for name, arr in self.params.items()}


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Little-endian container: magic, version, JSON meta, raw arrays, sha256 trailer."""
    param_index = [[n, str(a.dtype), list(a.shape)] for n, a in ckpt.params.items()]
    meta = json.dumps({
        "model_config": ckpt.model_config.to_dict(),
        "schema_digest": ckpt.schema_digest,
        "step": ckpt.step,
        "rng_info": ckpt.rng_info,
        "params": param_index,
        # always null; older version-1 loaders read this key, so dropping it needs a CKPT_VERSION bump
        "optimizer": None,
    }).encode("utf-8")
    chunks = [CKPT_MAGIC, struct.pack("<I", CKPT_VERSION), struct.pack("<I", len(meta)), meta]
    for name, arr in ckpt.params.items():
        chunks.append(np.ascontiguousarray(arr).tobytes())
    body = b"".join(chunks)
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(hashlib.sha256(body).digest())


_META_TYPES = (("model_config", dict), ("rng_info", dict), ("schema_digest", str),
               ("step", int), ("params", list))


def _check_meta_structure(path, meta) -> None:
    """IntegrityError unless `meta` has the JSON structure save_checkpoint writes."""
    if not isinstance(meta, dict):
        raise IntegrityError(f"{path}: metadata is not a JSON object")
    for key, kind in _META_TYPES:
        value = meta.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise IntegrityError(f"{path}: metadata {key!r} is {value!r}, not a JSON {kind.__name__}")
    for entry in meta["params"]:
        if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)
                and isinstance(entry[1], str) and isinstance(entry[2], list)):
            raise IntegrityError(f"{path}: parameter entry {entry!r} is not [name, dtype, shape]")


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint whose every byte is accounted for.

    Raises IntegrityError for a bad magic or checksum, unreadable or
    mis-structured metadata, a dtype outside CKPT_DTYPES, an array past the
    body or unread trailing bytes, and UnsupportedVersionError for any
    version but CKPT_VERSION.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CKPT_MAGIC) + 8 + 32:
        raise IntegrityError(f"{path}: file too short to be a checkpoint")
    if blob[:5] != CKPT_MAGIC:
        raise IntegrityError(f"{path}: bad magic {blob[:5]!r}")
    (version,) = struct.unpack_from("<I", blob, 5)
    if version != CKPT_VERSION:
        raise UnsupportedVersionError(
            f"{path}: checkpoint version {version} is not supported (expected {CKPT_VERSION})")
    body, trailer = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != trailer:
        raise IntegrityError(f"{path}: checksum mismatch (corrupt or truncated)")
    (meta_len,) = struct.unpack_from("<I", body, 9)
    off = 13 + meta_len
    if off > len(body):
        raise IntegrityError(f"{path}: metadata runs past the end of the body")
    try:
        meta = json.loads(body[13:off].decode("utf-8"))
    except ValueError as exc:
        raise IntegrityError(f"{path}: unreadable metadata: {exc}") from exc
    _check_meta_structure(path, meta)
    try:
        model_config = ModelConfig.from_dict(meta["model_config"])
    except (TypeError, ConfigError) as exc:
        raise IntegrityError(f"{path}: unusable model_config: {exc}") from exc
    params: dict[str, np.ndarray] = {}
    for name, dtype, shape in meta["params"]:
        if name in params:
            raise IntegrityError(f"{path}: parameter {name!r} listed twice")
        if dtype not in CKPT_DTYPES:
            raise IntegrityError(f"{path}: parameter {name!r} has unsupported dtype {dtype!r}")
        if not (isinstance(shape, list) and all(isinstance(d, int) and d >= 0 for d in shape)):
            raise IntegrityError(f"{path}: parameter {name!r} has invalid shape {shape!r}")
        count = math.prod(shape)
        end = off + count * np.dtype(dtype).itemsize
        if end > len(body):
            raise IntegrityError(f"{path}: parameter {name!r} runs past the end of the body")
        params[name] = np.frombuffer(body, dtype=dtype, count=count, offset=off).reshape(shape).copy()
        off = end
    if off != len(body):
        raise IntegrityError(f"{path}: {len(body) - off} unread trailing bytes")
    return Checkpoint(
        model_config=model_config,
        schema_digest=meta["schema_digest"],
        params=params,
        step=meta["step"],
        rng_info=meta["rng_info"],
    )


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


def _grad_norm_stats(norms: list[float]) -> dict:
    """Per-epoch summary of the pre-clip global gradient norms; zeros for an epoch with no step."""
    steps = max(len(norms), 1)
    return {"grad_norm_mean": sum(norms) / steps, "grad_norm_max": max(norms, default=0.0),
            "clipped_frac": sum(norm > GRAD_CLIP for norm in norms) / steps}


def _epoch_streams(seed: int, salt: int, epoch: int, n: int) -> tuple[np.ndarray, np.random.Generator]:
    """The epoch's order of `n` windows (stream `salt`) and dropout stream (`salt + 101`, idle at rate 0)."""
    order = np.random.default_rng(np.random.SeedSequence([seed, salt, epoch])).permutation(n)
    return order, np.random.default_rng(np.random.SeedSequence([seed, salt + 101, epoch]))


def _step(state: AdamState, loss: Tensor, tcfg: TrainConfig, norms: list[float]) -> float:
    """One optimizer step on a finite `loss`; appends the pre-clip gradient norm, returns the loss."""
    value = float(loss.data)
    if not math.isfinite(value):
        raise NumericError(f"training loss is non-finite: {value}")
    state.zero_grad()
    loss.backward()
    norms.append(clip_global_norm(state))
    adam_step(state, tcfg)
    return value


def _checkpoint(mcfg: ModelConfig, schema: FeatureSchema, params: dict[str, Tensor],
                state: AdamState, rng_info: dict) -> Checkpoint:
    """A copy of the trained parameters; its step counts the Adam updates."""
    return Checkpoint(model_config=mcfg, schema_digest=schema.digest(),
                      params={name: p.data.copy() for name, p in params.items()},
                      step=state.t, rng_info=rng_info)


# Windows whose masks `pretrain` draws in one `field_masks` call, rounded down to whole batches
# (at least one). Per window, a call over 256 windows takes about a third of the time of one
# over 32 (7.7 against 22 us). Chunks of 1024 saved 13 ms more per epoch of the 200 x 200 log
# but raised the command's peak RSS by 0.25 MiB; chunks of 256 did not measurably raise it.
MASK_CHUNK_WINDOWS = 256


def pretrain(samples: Windows, schema: FeatureSchema, mcfg: ModelConfig,
             tcfg: TrainConfig, mask_cfg: MaskConfig) -> tuple[Checkpoint, list[dict]]:
    """Reconstruction pretraining; returns the final checkpoint and per-epoch records."""
    if schema.n_mask_columns == 0:
        raise ConfigError("schema has no categorical or continuous fields to reconstruct")
    if samples.labels is not None:
        raise ContractError("pretraining dataset must not carry labels")
    params = init_params(schema, mcfg, seed=tcfg.seed, head="pretrain")
    state = AdamState(params, list(params))
    records: list[dict] = []
    n = len(samples)
    chunk = tcfg.batch_size * max(1, MASK_CHUNK_WINDOWS // tcfg.batch_size)
    for epoch in range(tcfg.epochs):
        order, drop_rng = _epoch_streams(tcfg.seed, 101, epoch, n)  # 101 and 202
        loss_sum = 0.0
        stats = {"cat_total": 0, "cat_correct": 0, "cont_total": 0, "cont_sse": 0.0}
        norms: list[float] = []
        for start in range(0, n, tcfg.batch_size):
            idx = order[start : start + tcfg.batch_size]
            at = start % chunk
            if at == 0:  # the masks of the next `chunk` windows in order, drawn at once
                masks = field_masks(samples.window, schema, mask_cfg, epoch,
                                    order[start : start + chunk])
            batch = _apply_field_masks(stack_batch(samples[idx]),
                                       masks[at : at + len(idx)], schema)
            preds, reg = forward_mdm(batch, params, mcfg, schema, dropout_rng=drop_rng)
            loss, bs = mdm_loss_and_stats(preds, batch, reg, schema)
            loss_sum += _step(state, loss, tcfg, norms)
            for k in stats:
                stats[k] += bs[k]
        records.append({
            "epoch": epoch,
            "loss": loss_sum / max(len(norms), 1),
            "masked_cat_acc": stats["cat_correct"] / max(stats["cat_total"], 1),
            "masked_cont_mse": stats["cont_sse"] / max(stats["cont_total"], 1),
            **_grad_norm_stats(norms),
        })
    rng_info = {"seed": tcfg.seed, "mask_seed": mask_cfg.seed, "epochs": tcfg.epochs}
    return _checkpoint(mcfg, schema, params, state, rng_info), records


def finetune(ckpt: Checkpoint, samples: Windows, schema: FeatureSchema,
             tcfg: TrainConfig, val_samples: Windows | None = None) -> tuple[Checkpoint, list[dict]]:
    """Binary classification training; `tcfg.mode` picks finetune vs scratch.

    finetune: start from the checkpoint's encoder+embeddings, freeze every
    embedding/timestamp parameter, drop the reconstruction heads, train the
    encoder and a fresh classifier. scratch: same architecture, fully random
    init, everything trains. After each epoch the `val_samples` windows, if
    any, are scored as `evaluate` scores them, into `val_*` record keys.
    """
    if ckpt.schema_digest != schema.digest():
        raise ConfigError("checkpoint schema digest does not match the dataset schema")
    if samples.labels is None or (val_samples is not None and val_samples.labels is None):
        raise ContractError("finetuning dataset must be labeled")
    if tcfg.mode not in ("finetune", "scratch"):
        raise ConfigError(f"finetune() cannot run with mode {tcfg.mode!r}")
    mcfg = ckpt.model_config
    fresh = init_params(schema, mcfg, seed=tcfg.seed, head="classify")
    base = ckpt.tensors(trainable=set()) if tcfg.mode == "finetune" else fresh
    params = {name: t for name, t in base.items() if not name.startswith("head.")}
    params["clf.w"], params["clf.b"] = fresh["clf.w"], fresh["clf.b"]
    names = trainable_names(params, tcfg.mode)
    for name in names:  # checkpoint tensors start frozen
        params[name].requires_grad = True
    state = AdamState(params, names)
    records: list[dict] = []
    n = len(samples)
    for epoch in range(tcfg.epochs):
        order, drop_rng = _epoch_streams(tcfg.seed, 303, epoch, n)  # 303 and 404
        loss_sum = 0.0
        norms: list[float] = []
        for start in range(0, n, tcfg.batch_size):
            batch = stack_batch(samples[order[start : start + tcfg.batch_size]])
            logits = forward_classify(batch, params, mcfg, schema, dropout_rng=drop_rng)
            loss_sum += _step(state, bce_loss(logits, batch.labels), tcfg, norms)
        record = {"epoch": epoch, "loss": loss_sum / max(len(norms), 1), **_grad_norm_stats(norms)}
        if val_samples:
            scores = _classification_scores(params, mcfg, schema, val_samples)
            record.update({f"val_{k}": v for k, v in scores.items()})
        records.append(record)
    rng_info = {"seed": tcfg.seed, "mode": tcfg.mode, "epochs": tcfg.epochs, "base_step": ckpt.step}
    return _checkpoint(mcfg, schema, params, state, rng_info), records


# Most threads `predict_proba` scores on: the only pool width measured (two CPUs).
MAX_SCORING_WORKERS = 2
# OpenBLAS takes its thread count from the first of these that is set, else runs one thread
# per CPU. Scoring threads help only over a one-thread BLAS: on two CPUs, `predict_proba` over
# 9500 windows took 0.67-0.74 s in one thread, 0.47-0.48 s on two workers over a one-thread
# BLAS and 0.97-1.07 s on two workers over OpenBLAS's default threads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _scoring_workers(batches: int) -> int:
    """Threads to score `batches` batches on: one per usable CPU, at most `MAX_SCORING_WORKERS`
    and never more than batches, or one unless BLAS is set to run one thread."""
    blas = next((os.environ[v] for v in BLAS_THREAD_VARS if os.environ.get(v)), None)
    if blas is None or blas.strip() != "1":
        return 1
    return min(_usable_cpus(), MAX_SCORING_WORKERS, batches)


def predict_proba(params: dict[str, Tensor], mcfg: ModelConfig, schema: FeatureSchema,
                  samples: Windows, batch_size: int = 64) -> np.ndarray:
    """Deterministic forward pass (dropout off) returning fraud probabilities.

    The forward runs on frozen leaves that share the parameters' arrays, so
    it records no autodiff graph even while the parameters are trainable.
    With more than one `_scoring_workers`, batches are scored on a thread
    pool; each batch is scored alone and the results are joined in order,
    so the probabilities do not depend on the worker count.
    """
    frozen = {name: Tensor(p.data) for name, p in params.items()}

    def score(start: int) -> np.ndarray:
        batch = stack_batch(samples[start : start + batch_size])
        return tt.sigmoid(forward_classify(batch, frozen, mcfg, schema, dropout_rng=None).data)

    starts = range(0, len(samples), batch_size)
    workers = _scoring_workers(len(starts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            probs = list(pool.map(score, starts))
    else:
        probs = [score(start) for start in starts]
    return np.concatenate(probs) if probs else np.zeros(0)


def _classification_scores(params: dict[str, Tensor], mcfg: ModelConfig, schema: FeatureSchema,
                           samples: Windows) -> dict:
    """F1, precision, recall, AUROC and predicted-positive rate (positive: p >= 0.5) on labeled windows."""
    probs, labels = predict_proba(params, mcfg, schema, samples), samples.labels
    preds = (probs >= 0.5).astype(int)
    precision, recall, f1 = precision_recall_f1(preds, labels)
    return {"f1": f1, "precision": precision, "recall": recall, "auroc": auroc(probs, labels),
            "predicted_positive_rate": float(preds.mean()) if preds.size else 0.0}


def evaluate(ckpt: Checkpoint, samples: Windows, schema: FeatureSchema) -> dict:
    """F1/precision/recall/AUROC of the checkpointed classifier on labeled windows."""
    if ckpt.schema_digest != schema.digest():
        raise ConfigError("checkpoint schema digest does not match the dataset schema")
    if "clf.w" not in ckpt.params:
        raise ConfigError("checkpoint has no classifier head; finetune first")
    if samples.labels is None:
        raise ContractError("evaluation windows must be labeled")
    scores = _classification_scores(ckpt.tensors(trainable=set()), ckpt.model_config, schema, samples)
    return {**scores, "n": len(samples), "positives": int(samples.labels.sum())}
