"""Encoder network: summed input embeddings, attention-augmented 1-D
convolution blocks, and output heads.

Every forward function is pure: it takes a named-parameter dict plus a
ModelConfig and builds a fresh autodiff graph. Channel layout follows the
additive design: categorical lookups, continuous projections, the timestamp
embedding block and a fixed sinusoidal positional encoding are all summed
into one [B, T, d_model] stream, so d_model is independent of column count.

Each encoder block computes

    y = pointwise_mix(concat[conv(x), multi_head_attention(x)])

followed by residual + layer norm and a position-wise feed-forward sublayer
(residual + layer norm again, BERT-style post-norm).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as tt
from .errors import ConfigError, ShapeError
from .schema import TS_COMPONENT_NAMES, FeatureSchema
from .tensor import Tensor

FROZEN_PREFIXES = ("embed.", "time.")  # excluded from finetune updates


@dataclass
class ModelConfig:
    d_model: int = 64
    n_heads: int = 4
    kernel_size: int = 3
    n_blocks: int = 1
    attn_channels: int | None = None  # defaults to d_model // 2
    conv_channels: int | None = None  # defaults to d_model - attn_channels
    ffn_mult: int = 4
    dropout: float = 0.1
    activity_reg_lambda: float = 1e-4
    conv_padding: str = "zero"

    def __post_init__(self):
        for name, flag, least in (("d_model", "--d-model", 2), ("n_heads", "--heads", 1),
                                  ("ffn_mult", "--ffn-mult", 1), ("kernel_size", "--kernel", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} ({flag}) must be >= {least}, got {getattr(self, name)}")
        if self.kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size (--kernel) must be odd, got {self.kernel_size}")
        if self.d_model % 2 != 0:
            raise ConfigError(f"d_model (--d-model) must be even for sinusoidal encoding, got {self.d_model}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout (--dropout) must be in [0,1), got {self.dropout}")
        if self.n_blocks < 0:
            raise ConfigError(f"n_blocks (--blocks) must be >= 0, got {self.n_blocks}")
        halved = self.attn_channels is None
        if halved:
            self.attn_channels = self.d_model // 2
        if self.conv_channels is None:
            self.conv_channels = self.d_model - self.attn_channels
        if self.attn_channels + self.conv_channels != self.d_model:
            raise ConfigError(
                f"attn_channels {self.attn_channels} + conv_channels {self.conv_channels} "
                f"must equal d_model {self.d_model}"
            )
        if self.attn_channels % self.n_heads != 0:
            # each value ends a line: either flag may be the one to change
            raise ConfigError(
                f"attn_channels {self.attn_channels} not divisible by n_heads (--heads) {self.n_heads}"
                + (f"\nattn_channels is half of d_model (--d-model) {self.d_model}" if halved else "")
            )

    @property
    def d_head(self) -> int:
        return self.attn_channels // self.n_heads

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


@dataclass
class Batch:
    """Stacked window samples ready for a forward pass.

    For pretraining, cat/cont hold the masked inputs while *_targets hold
    the original values and *_mask say which cells the loss covers. For
    classification, masks/targets are None and labels is a float (B,) array.
    """

    cat: np.ndarray            # [B, T, C_cat] int32
    cont: np.ndarray           # [B, T, C_cont] float
    ts_components: np.ndarray  # [B, T, 8] int32
    ts_floats: np.ndarray      # [B, T, 4] float
    cat_mask: np.ndarray | None = None     # [B, T, C_cat] bool
    cont_mask: np.ndarray | None = None    # [B, T, C_cont] bool
    cat_targets: np.ndarray | None = None  # [B, T, C_cat] int32 (originals)
    cont_targets: np.ndarray | None = None
    labels: np.ndarray | None = None       # [B] float

    @property
    def size(self) -> int:
        return self.cat.shape[0]

    @property
    def window(self) -> int:
        return self.cat.shape[1]


# ---------------------------------------------------------------------------
# parameter construction
# ---------------------------------------------------------------------------


def param_specs(schema: FeatureSchema, cfg: ModelConfig,
                head: str = "pretrain") -> dict[str, tuple[tuple[int, ...], int | str]]:
    """Name -> (shape, init) of every parameter, in the order `init_params` draws them.

    init is the fan-in of a uniform(+-1/sqrt(fan_in)) draw, or "zeros" or
    "ones". head: "pretrain" adds per-field reconstruction heads, "classify"
    adds the binary classifier, "none" adds neither.
    """
    if head not in ("pretrain", "classify", "none"):
        raise ConfigError(f"unknown head kind {head!r}")
    d = cfg.d_model
    specs: dict[str, tuple[tuple[int, ...], int | str]] = {}
    for f in schema.categorical_fields:
        specs[f"embed.cat.{f.name}"] = ((f.vocab_size(), d), d)
    for f in schema.continuous_fields:
        specs[f"embed.cont.{f.name}.w"] = ((d,), 1)
        specs[f"embed.cont.{f.name}.b"] = ((d,), "zeros")

    sizes = schema.component_sizes()
    for name in TS_COMPONENT_NAMES:
        specs[f"time.comp.{name}"] = ((sizes[name], d), d)
    specs["time.net.w1"] = ((4, d), 4)
    specs["time.net.b1"] = ((d,), "zeros")
    specs["time.net.w2"] = ((d, d), d)
    specs["time.net.b2"] = ((d,), "zeros")

    for i in range(cfg.n_blocks):
        p = f"block{i}"
        specs[f"{p}.conv.w"] = ((cfg.kernel_size, d, cfg.conv_channels), cfg.kernel_size * d)
        specs[f"{p}.conv.b"] = ((cfg.conv_channels,), "zeros")
        specs[f"{p}.attn.wq"] = ((d, cfg.attn_channels), d)
        specs[f"{p}.attn.wk"] = ((d, cfg.attn_channels), d)
        specs[f"{p}.attn.wv"] = ((d, cfg.attn_channels), d)
        specs[f"{p}.attn.wmix"] = ((cfg.attn_channels, cfg.attn_channels), cfg.attn_channels)
        specs[f"{p}.mix.w"] = ((1, d, d), d)
        specs[f"{p}.mix.b"] = ((d,), "zeros")
        specs[f"{p}.ln1.g"] = ((d,), "ones")
        specs[f"{p}.ln1.b"] = ((d,), "zeros")
        hidden = cfg.ffn_mult * d
        specs[f"{p}.ffn.w1"] = ((d, hidden), d)
        specs[f"{p}.ffn.b1"] = ((hidden,), "zeros")
        specs[f"{p}.ffn.w2"] = ((hidden, d), hidden)
        specs[f"{p}.ffn.b2"] = ((d,), "zeros")
        specs[f"{p}.ln2.g"] = ((d,), "ones")
        specs[f"{p}.ln2.b"] = ((d,), "zeros")

    if head == "pretrain":
        for f in schema.categorical_fields:
            specs[f"head.cat.{f.name}.w"] = ((d, f.vocab_size()), d)
            specs[f"head.cat.{f.name}.b"] = ((f.vocab_size(),), "zeros")
        for f in schema.continuous_fields:
            specs[f"head.cont.{f.name}.w"] = ((d, 1), d)
            specs[f"head.cont.{f.name}.b"] = ((1,), "zeros")
    elif head == "classify":
        specs["clf.w"] = ((d, 1), d)
        specs["clf.b"] = ((1,), "zeros")
    return specs


def init_params(schema: FeatureSchema, cfg: ModelConfig, seed: int = 0,
                head: str = "pretrain") -> dict[str, Tensor]:
    """Seeded parameter dict of `param_specs`; uniform(+-1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, (shape, init) in param_specs(schema, cfg, head).items():
        if init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        else:
            bound = 1.0 / math.sqrt(init)
            data = rng.uniform(-bound, bound, size=shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


def trainable_names(params: dict[str, Tensor], mode: str) -> list[str]:
    """Which parameters the optimizer updates; finetune freezes embeddings."""
    if mode == "finetune":
        return [n for n in params if not n.startswith(FROZEN_PREFIXES)]
    return list(params)


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------


def positional_encoding(t_len: int, d_model: int) -> Tensor:
    """Fixed sinusoidal encoding [T, d_model]; not learned. Its array is shared and read-only."""
    return Tensor(_sinusoid_table(t_len, d_model, tt.default_dtype()))


@functools.lru_cache(maxsize=16)
def _sinusoid_table(t_len: int, d_model: int, dtype: np.dtype) -> np.ndarray:
    """The encoding in `dtype`, built on first use; read-only, since every caller gets the same array."""
    if d_model % 2 != 0:
        raise ConfigError(f"positional encoding needs even d_model, got {d_model}")
    pos = np.arange(t_len, dtype=np.float64)[:, None]
    idx = np.arange(d_model // 2, dtype=np.float64)
    angles = pos / np.power(10000.0, 2.0 * idx / d_model)
    pe = np.zeros((t_len, d_model))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    pe = pe.astype(dtype)
    pe.flags.writeable = False
    return pe


def _time_net(floats: np.ndarray, params: dict[str, Tensor]) -> Tensor:
    """Shallow net over the time floats."""
    hidden = tt.relu(tt.linear(Tensor(floats), params["time.net.w1"], params["time.net.b1"]))
    return tt.linear(hidden, params["time.net.w2"], params["time.net.b2"])


def embed_inputs(batch: Batch, params: dict[str, Tensor], cfg: ModelConfig,
                 schema: FeatureSchema, penalty: bool = True) -> tuple[Tensor, Tensor | None]:
    """Sum all input streams into [B, T, d_model]; also returns the time net's
    activity penalty lambda * mean(out**2), or None without `penalty`.

    The calendar and categorical lookups are one `embedding_sum` node, and
    the continuous projections value * w + b and the positional encoding
    are one `add_projections` node.
    """
    tables = ([params[f"time.comp.{name}"] for name in TS_COMPONENT_NAMES]
              + [params[f"embed.cat.{f.name}"] for f in schema.categorical_fields])
    ids = np.concatenate([batch.ts_components, batch.cat], axis=-1)
    t_out = _time_net(batch.ts_floats, params)
    reg = tt.scaled_mean_square(t_out, cfg.activity_reg_lambda) if penalty else None
    h = tt.add(tt.embedding_sum(tables, ids), t_out)
    cont = [f"embed.cont.{f.name}" for f in schema.continuous_fields]
    pe = positional_encoding(batch.window, cfg.d_model).data
    return tt.add_projections(h, batch.cont, [params[f"{p}.w"] for p in cont],
                              [params[f"{p}.b"] for p in cont], pe), reg


def mha(x: Tensor, params: dict[str, Tensor], cfg: ModelConfig, prefix: str = "block0") -> Tensor:
    """Bidirectional multi-head self-attention, [B,T,d] -> [B,T,attn_channels], as one node."""
    return tt.attention(x, *(params[f"{prefix}.attn.{w}"] for w in ("wq", "wk", "wv", "wmix")),
                        heads=cfg.n_heads)


def aaconv_layer(x: Tensor, params: dict[str, Tensor], cfg: ModelConfig,
                 prefix: str = "block0") -> Tensor:
    """Concat of conv and attention channels, mixed pointwise.

    The pointwise (k=1) mix is a matmul with `mix.w` [1, d, d] seen as [d, d].
    """
    if x.shape[-1] != cfg.d_model:
        raise ShapeError(f"aaconv_layer: input width {x.shape[-1]} != d_model {cfg.d_model}")
    conv_out = tt.conv1d(x, params[f"{prefix}.conv.w"], params[f"{prefix}.conv.b"],
                         padding=cfg.conv_padding)
    attn_out = mha(x, params, cfg, prefix)
    stacked = tt.concat_lastdim([conv_out, attn_out])
    d = cfg.d_model
    return tt.linear(stacked, tt.reshape(params[f"{prefix}.mix.w"], (d, d)), params[f"{prefix}.mix.b"])


def _ffn(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    hidden = tt.relu(tt.linear(x, params[f"{prefix}.ffn.w1"], params[f"{prefix}.ffn.b1"]))
    return tt.linear(hidden, params[f"{prefix}.ffn.w2"], params[f"{prefix}.ffn.b2"])


def encoder_forward(x: Tensor, params: dict[str, Tensor], cfg: ModelConfig,
                    dropout_rng: np.random.Generator | None = None) -> Tensor:
    """n_blocks repetitions of {aaconv sublayer, FFN sublayer}, each a post-norm residual node."""
    h = x
    for i in range(cfg.n_blocks):
        p = f"block{i}"
        h = tt.residual_norm(h, aaconv_layer(h, params, cfg, p), params[f"{p}.ln1.g"], params[f"{p}.ln1.b"],
                             cfg.dropout, dropout_rng)
        h = tt.residual_norm(h, _ffn(h, params, p), params[f"{p}.ln2.g"], params[f"{p}.ln2.b"],
                             cfg.dropout, dropout_rng)
    return h


def pretrain_heads(h: Tensor, params: dict[str, Tensor], schema: FeatureSchema) -> Tensor:
    """Every field's reconstruction prediction at every position, as one [B, T, W] `linear` node.

    The columns are each field's head side by side: the categorical fields'
    vocab_size() columns first, then one column per continuous field, in
    schema order.
    """
    names = ([f"head.cat.{f.name}" for f in schema.categorical_fields]
             + [f"head.cont.{f.name}" for f in schema.continuous_fields])
    return tt.linear(h, [params[f"{p}.w"] for p in names], [params[f"{p}.b"] for p in names])


def classify_logits(h: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Mean-pool over time then a single dense unit; returns [B] logits."""
    pooled = tt.mean_axis(h, axis=1)
    z = tt.linear(pooled, params["clf.w"], params["clf.b"])
    return tt.reshape(z, (h.shape[0],))


# ---------------------------------------------------------------------------
# whole-model forwards
# ---------------------------------------------------------------------------


def forward_mdm(batch: Batch, params: dict[str, Tensor], cfg: ModelConfig,
                schema: FeatureSchema, dropout_rng=None) -> tuple[Tensor, Tensor]:
    h, reg = embed_inputs(batch, params, cfg, schema)
    h = encoder_forward(h, params, cfg, dropout_rng)
    return pretrain_heads(h, params, schema), reg


def forward_classify(batch: Batch, params: dict[str, Tensor], cfg: ModelConfig,
                     schema: FeatureSchema, dropout_rng=None) -> Tensor:
    h, _ = embed_inputs(batch, params, cfg, schema, penalty=False)  # the penalty is pretraining's
    h = encoder_forward(h, params, cfg, dropout_rng)
    return classify_logits(h, params)
