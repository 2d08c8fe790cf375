"""Pretraining and fine-tuning loops, optimizer, metrics, checkpointing.

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
import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tt
from .errors import (
    ConfigError,
    ContractError,
    IntegrityError,
    NumericError,
    UnsupportedVersionError,
)
from .masking import MaskConfig, apply_mask, rng_for_sample, sample_mask_plan
from .model import (
    Batch,
    ModelConfig,
    forward_classify,
    forward_mdm,
    init_params,
    trainable_names,
)
from .schema import FeatureSchema, WindowSample
from .tensor import Tensor


@dataclass
class TrainConfig:
    batch_size: int = 32
    epochs: int = 5
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    mode: str = "pretrain"  # pretrain | finetune | scratch
    grad_clip: float = 1.0
    ce_weight: float = 1.0
    mse_weight: float = 1.0

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError(f"batch_size/epochs must be positive, got {self.batch_size}/{self.epochs}")
        if self.learning_rate <= 0 or self.eps <= 0:
            raise ConfigError("learning_rate and eps must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError(f"betas must be in [0,1), got {self.beta1}/{self.beta2}")
        if self.mode not in ("pretrain", "finetune", "scratch"):
            raise ConfigError(f"unknown mode {self.mode!r}")


# ---------------------------------------------------------------------------
# batch assembly
# ---------------------------------------------------------------------------


def stack_batch(samples: list[WindowSample]) -> Batch:
    """Plain forward batch (no masking); labels kept when every sample has one."""
    labels = None
    if samples and samples[0].label is not None:
        labels = np.asarray([s.label for s in samples], dtype=np.float64)
    return Batch(
        cat=np.stack([s.cat_tokens for s in samples]),
        cont=np.stack([s.cont_values for s in samples]),
        ts_components=np.stack([s.ts_components for s in samples]),
        ts_floats=np.stack([s.ts_floats for s in samples]),
        labels=labels,
    )


def masked_batch(samples: list[WindowSample], schema: FeatureSchema, cfg: MaskConfig,
                 epoch: int, sample_indices: list[int]) -> Batch:
    """Fresh mask plan per sample (derived per-epoch stream), then stack."""
    masked, cat_masks, cont_masks = [], [], []
    cat_targets, cont_targets = [], []
    for sample, idx in zip(samples, sample_indices):
        plan = sample_mask_plan(sample.window, schema, cfg, rng_for_sample(cfg.seed, epoch, idx))
        masked.append(apply_mask(sample, plan, schema))
        cat_masks.append(plan.cat_mask)
        cont_masks.append(plan.cont_mask)
        cat_targets.append(sample.cat_tokens)
        cont_targets.append(sample.cont_values)
    batch = stack_batch(masked)
    batch.cat_mask = np.stack(cat_masks)
    batch.cont_mask = np.stack(cont_masks)
    batch.cat_targets = np.stack(cat_targets)
    batch.cont_targets = np.stack(cont_targets)
    return batch


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def mdm_loss(preds: dict[str, Tensor], batch: Batch, reg: Tensor, schema: FeatureSchema,
             ce_weight: float = 1.0, mse_weight: float = 1.0) -> Tensor:
    """Masked-cell reconstruction loss; a kind with zero masked cells contributes 0."""
    total = reg
    n_cat = int(batch.cat_mask.sum()) if batch.cat_mask is not None else 0
    if n_cat:
        ce_sum = None
        for c, f in enumerate(schema.categorical_fields):
            mask = batch.cat_mask[:, :, c]
            if not mask.any():
                continue
            b_idx, t_idx = np.nonzero(mask)
            logits = tt.gather_bt(preds[f.name], b_idx, t_idx)
            targets = batch.cat_targets[b_idx, t_idx, c]
            term = tt.cross_entropy_sum(logits, targets)
            ce_sum = term if ce_sum is None else tt.add(ce_sum, term)
        total = tt.add(total, tt.scale(ce_sum, ce_weight / n_cat))
    n_cont = int(batch.cont_mask.sum()) if batch.cont_mask is not None else 0
    if n_cont:
        se_sum = None
        for c, f in enumerate(schema.continuous_fields):
            mask = batch.cont_mask[:, :, c]
            if not mask.any():
                continue
            b_idx, t_idx = np.nonzero(mask)
            pred = tt.reshape(tt.gather_bt(preds[f.name], b_idx, t_idx), (len(b_idx),))
            diff = tt.add(pred, tt.scale(Tensor(batch.cont_targets[b_idx, t_idx, c]), -1.0))
            term = tt.sum_all(tt.mul(diff, diff))
            se_sum = term if se_sum is None else tt.add(se_sum, term)
        total = tt.add(total, tt.scale(se_sum, mse_weight / n_cont))
    return total


def mdm_batch_stats(preds: dict[str, Tensor], batch: Batch, schema: FeatureSchema) -> dict:
    """Reconstruction accuracy/error counters at masked cells (no gradients)."""
    cat_total = cat_correct = 0
    cont_total = 0
    cont_sse = 0.0
    for c, f in enumerate(schema.categorical_fields):
        mask = batch.cat_mask[:, :, c]
        if not mask.any():
            continue
        b_idx, t_idx = np.nonzero(mask)
        guesses = preds[f.name].data[b_idx, t_idx].argmax(axis=-1)
        targets = batch.cat_targets[b_idx, t_idx, c]
        cat_total += len(b_idx)
        cat_correct += int((guesses == targets).sum())
    for c, f in enumerate(schema.continuous_fields):
        mask = batch.cont_mask[:, :, c]
        if not mask.any():
            continue
        b_idx, t_idx = np.nonzero(mask)
        pred = preds[f.name].data[b_idx, t_idx, 0]
        target = batch.cont_targets[b_idx, t_idx, c]
        cont_total += len(b_idx)
        cont_sse += float(((pred - target) ** 2).sum())
    return {"cat_total": cat_total, "cat_correct": cat_correct,
            "cont_total": cont_total, "cont_sse": cont_sse}


def bce_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean binary cross entropy from logits (probability = sigmoid(logit))."""
    n = logits.data.size
    return tt.scale(tt.bce_with_logits_sum(logits, labels), 1.0 / n)


def precision_recall_f1(preds, labels) -> tuple[float, float, float]:
    """Precision, recall and F1 of the positive class; each is 0 when its denominator is.

    F1 is 0 by convention whenever TP == 0.
    """
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ContractError(f"{preds.shape} predictions vs {labels.shape} labels")
    tp = int(((preds == 1) & (labels == 1)).sum())
    fp = int(((preds == 1) & (labels == 0)).sum())
    fn = int(((preds == 0) & (labels == 1)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if tp else 0.0
    return precision, recall, f1


def f1_binary(preds, labels) -> float:
    """F1 of the positive class, as precision_recall_f1 computes it."""
    return precision_recall_f1(preds, labels)[2]


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, Tensor], names: list[str]) -> "AdamState":
        return cls(
            m={n: np.zeros_like(params[n].data) for n in names},
            v={n: np.zeros_like(params[n].data) for n in names},
        )


def clip_global_norm(params: dict[str, Tensor], names: list[str], max_norm: float) -> float:
    total = 0.0
    for n in names:
        g = params[n].grad
        if g is not None:
            total += float((g.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for n in names:
            if params[n].grad is not None:
                params[n].grad *= factor
    return norm


def adam_step(params: dict[str, Tensor], state: AdamState, cfg: TrainConfig,
              names: list[str] | None = None) -> None:
    """Bias-corrected Adam update in place; missing grads count as zero."""
    if names is None:
        names = list(state.m)
    state.t += 1
    c1 = 1.0 - cfg.beta1 ** state.t
    c2 = 1.0 - cfg.beta2 ** state.t
    for n in names:
        p = params[n]
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {n!r}")
        m = state.m[n]
        v = state.v[n]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        update = (m / c1) / (np.sqrt(v / c2) + cfg.eps)
        p.data -= (cfg.learning_rate * update).astype(p.data.dtype)


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
        out = {}
        for name, arr in self.params.items():
            requires = True if trainable is None else name in trainable
            t = Tensor(arr.copy(), requires_grad=requires)
            out[name] = t
        return out


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


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint whose every byte is accounted for.

    Raises IntegrityError for a bad magic or checksum, unreadable metadata,
    a dtype outside CKPT_DTYPES, an array past the body or unread trailing
    bytes, and UnsupportedVersionError for any version but CKPT_VERSION.
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
    params: dict[str, np.ndarray] = {}
    for name, dtype, shape in meta["params"]:
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
        model_config=ModelConfig.from_dict(meta["model_config"]),
        schema_digest=meta["schema_digest"],
        params=params,
        step=meta["step"],
        rng_info=meta["rng_info"],
    )


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


def _check_finite_loss(loss: Tensor) -> float:
    value = float(loss.data)
    if not math.isfinite(value):
        raise NumericError(f"training loss is non-finite: {value}")
    return value


def pretrain(samples: list[WindowSample], schema: FeatureSchema, mcfg: ModelConfig,
             tcfg: TrainConfig, mask_cfg: MaskConfig) -> tuple[Checkpoint, list[dict]]:
    """Reconstruction pretraining; returns the final checkpoint and per-epoch records."""
    if schema.n_mask_columns == 0:
        raise ConfigError("schema has no categorical or continuous fields to reconstruct")
    if any(s.label is not None for s in samples):
        raise ContractError("pretraining dataset must not carry labels")
    params = init_params(schema, mcfg, seed=tcfg.seed, head="pretrain")
    names = list(params)
    state = AdamState.for_params(params, names)
    records: list[dict] = []
    step = 0
    n = len(samples)
    for epoch in range(tcfg.epochs):
        order = np.random.default_rng(np.random.SeedSequence([tcfg.seed, 101, epoch])).permutation(n)
        drop_rng = (np.random.default_rng(np.random.SeedSequence([tcfg.seed, 202, epoch]))
                    if mcfg.dropout > 0 else None)
        loss_sum = 0.0
        stats = {"cat_total": 0, "cat_correct": 0, "cont_total": 0, "cont_sse": 0.0}
        n_batches = 0
        for start in range(0, n, tcfg.batch_size):
            idx = order[start : start + tcfg.batch_size]
            batch = masked_batch([samples[i] for i in idx], schema, mask_cfg, epoch, [int(i) for i in idx])
            preds, reg = forward_mdm(batch, params, mcfg, schema, dropout_rng=drop_rng)
            loss = mdm_loss(preds, batch, reg, schema, tcfg.ce_weight, tcfg.mse_weight)
            loss_sum += _check_finite_loss(loss)
            for p in params.values():
                p.grad = None
            loss.backward()
            clip_global_norm(params, names, tcfg.grad_clip)
            adam_step(params, state, tcfg, names)
            bs = mdm_batch_stats(preds, batch, schema)
            for k in stats:
                stats[k] += bs[k]
            step += 1
            n_batches += 1
        records.append({
            "epoch": epoch,
            "loss": loss_sum / max(n_batches, 1),
            "masked_cat_acc": stats["cat_correct"] / max(stats["cat_total"], 1),
            "masked_cont_mse": stats["cont_sse"] / max(stats["cont_total"], 1),
        })
    ckpt = Checkpoint(
        model_config=mcfg,
        schema_digest=schema.digest(),
        params={n_: p.data.copy() for n_, p in params.items()},
        step=step,
        rng_info={"seed": tcfg.seed, "mask_seed": mask_cfg.seed, "epochs": tcfg.epochs},
    )
    return ckpt, records


def finetune(ckpt: Checkpoint, samples: list[WindowSample], schema: FeatureSchema,
             tcfg: TrainConfig) -> tuple[Checkpoint, list[dict]]:
    """Binary classification training; `tcfg.mode` picks finetune vs scratch.

    finetune: start from the checkpoint's encoder+embeddings, freeze every
    embedding/timestamp parameter, drop the reconstruction heads, train the
    encoder and a fresh classifier. scratch: same architecture, fully random
    init, everything trains.
    """
    if ckpt.schema_digest != schema.digest():
        raise ConfigError("checkpoint schema digest does not match the dataset schema")
    if any(s.label is None for s in samples):
        raise ContractError("finetuning dataset must be labeled")
    mcfg = ckpt.model_config
    head_rng_seed = tcfg.seed
    if tcfg.mode == "scratch":
        params = init_params(schema, mcfg, seed=head_rng_seed, head="classify")
    elif tcfg.mode == "finetune":
        params = {n_: Tensor(a.copy()) for n_, a in ckpt.params.items() if not n_.startswith("head.")}
        fresh = init_params(schema, mcfg, seed=head_rng_seed, head="classify")
        params["clf.w"] = fresh["clf.w"]
        params["clf.b"] = fresh["clf.b"]
    else:
        raise ConfigError(f"finetune() cannot run with mode {tcfg.mode!r}")
    names = trainable_names(params, tcfg.mode)
    for n_ in names:  # checkpoint tensors start frozen
        params[n_].requires_grad = True
    state = AdamState.for_params(params, names)
    records: list[dict] = []
    step = 0
    n = len(samples)
    labels_all = np.asarray([s.label for s in samples], dtype=np.int64)
    for epoch in range(tcfg.epochs):
        order = np.random.default_rng(np.random.SeedSequence([tcfg.seed, 303, epoch])).permutation(n)
        drop_rng = (np.random.default_rng(np.random.SeedSequence([tcfg.seed, 404, epoch]))
                    if mcfg.dropout > 0 else None)
        loss_sum = 0.0
        n_batches = 0
        for start in range(0, n, tcfg.batch_size):
            idx = order[start : start + tcfg.batch_size]
            batch = stack_batch([samples[i] for i in idx])
            logits = forward_classify(batch, params, mcfg, schema, dropout_rng=drop_rng)
            loss = bce_loss(logits, batch.labels)
            loss_sum += _check_finite_loss(loss)
            for p in params.values():
                p.grad = None
            loss.backward()
            clip_global_norm(params, names, tcfg.grad_clip)
            adam_step(params, state, tcfg, names)
            step += 1
            n_batches += 1
        probs = predict_proba(params, mcfg, schema, samples, tcfg.batch_size)
        records.append({
            "epoch": epoch,
            "loss": loss_sum / max(n_batches, 1),
            "f1": f1_binary((probs >= 0.5).astype(int), labels_all),
        })
    out = Checkpoint(
        model_config=mcfg,
        schema_digest=schema.digest(),
        params={n_: p.data.copy() for n_, p in params.items()},
        step=step,
        rng_info={"seed": tcfg.seed, "mode": tcfg.mode, "epochs": tcfg.epochs,
                  "base_step": ckpt.step},
    )
    return out, records


def predict_proba(params: dict[str, Tensor], mcfg: ModelConfig, schema: FeatureSchema,
                  samples: list[WindowSample], batch_size: int = 64) -> np.ndarray:
    """Deterministic forward pass (dropout off) returning fraud probabilities."""
    probs = []
    for start in range(0, len(samples), batch_size):
        batch = stack_batch(samples[start : start + batch_size])
        logits = forward_classify(batch, params, mcfg, schema, dropout_rng=None)
        probs.append(tt.sigmoid(logits.data))
    return np.concatenate(probs) if probs else np.zeros(0)


def evaluate(ckpt: Checkpoint, samples: list[WindowSample], schema: FeatureSchema,
             batch_size: int = 64, threshold: float = 0.5) -> dict:
    """F1/precision/recall of the checkpointed classifier on labeled windows."""
    if ckpt.schema_digest != schema.digest():
        raise ConfigError("checkpoint schema digest does not match the dataset schema")
    if "clf.w" not in ckpt.params:
        raise ConfigError("checkpoint has no classifier head; finetune first")
    params = ckpt.tensors(trainable=set())
    probs = predict_proba(params, ckpt.model_config, schema, samples, batch_size)
    labels = np.asarray([s.label for s in samples], dtype=np.int64)
    preds = (probs >= threshold).astype(int)
    precision, recall, f1 = precision_recall_f1(preds, labels)
    return {"f1": f1, "precision": precision, "recall": recall,
            "n": len(samples), "positives": int(labels.sum())}
