#!/usr/bin/env python3
"""Inside the encoder: summed input embeddings, the attention-augmented
convolution block, and the two output heads."""

import math
import tempfile

import numpy as np

from tabaconv import synth
from tabaconv import tensor as tt
from tabaconv.masking import MaskConfig
from tabaconv.model import (
    ModelConfig,
    classify_logits,
    embed_inputs,
    encoder_forward,
    init_params,
    param_specs,
    pretrain_heads,
)
from tabaconv.schema import group_rows_by_user, infer_schema, make_windows, read_columns
from tabaconv.training import masked_batch

with tempfile.TemporaryDirectory() as tmp:
    csv_path, _ = synth.generate(synth.SynthConfig(n_users=3, rows_per_user=20, seed=2), tmp)
    roles = synth.default_roles()
    log = read_columns(csv_path, roles=roles)  # one streamed read, kept as per-column arrays
    schema = infer_schema(csv_path, roles, parsed=log)
    samples = make_windows(schema, log.header, group_rows_by_user(log.header, log, schema),
                           window=10, stride=5, mode="pretrain")

cfg = ModelConfig()  # d_model 64, 4 heads, kernel 3, one block, 32/32 channel split
specs = param_specs(schema, cfg, head="pretrain")  # name -> (shape, init), in draw order
print(f"parameters: {sum(math.prod(shape) for shape, _ in specs.values()):,}")
params = init_params(schema, cfg, seed=0, head="pretrain")
print("first few names:", list(params)[:6], "...")

batch = masked_batch(samples[:4], schema, MaskConfig(seed=0), epoch=0, sample_indices=[0, 1, 2, 3])
h, reg = embed_inputs(batch, params, cfg, schema)
print(f"\nembedded inputs: {h.shape} (sum of field, value, time and positional streams)")
print(f"timestamp-net activity penalty: {float(reg.data):.3e}")

encoded = encoder_forward(h, params, cfg)
print(f"encoder output: {encoded.shape} "
      f"(conv {cfg.conv_channels}ch || attention {cfg.attn_channels}ch -> pointwise mix, "
      f"residual + layer norm, FFN x{cfg.ffn_mult})")

preds = pretrain_heads(encoded, params, schema)
print(f"\nreconstruction heads: one node of shape {preds.shape}, "
      "every field's columns side by side; per field:")
hi = 0
for f in schema.categorical_fields + schema.continuous_fields:
    lo, hi = hi, hi + (f.vocab_size() if f.kind == "categorical" else 1)
    what = f"logits over {f.vocab_size()} token ids" if f.kind == "categorical" else "value prediction"
    print(f"  {f.name}: columns {lo}:{hi}, {what} {preds.data[..., lo:hi].shape}")

clf_params = init_params(schema, cfg, seed=0, head="classify")
probs = tt.sigmoid(classify_logits(encoder_forward(h, clf_params, cfg), clf_params).data)
print(f"\nclassifier head (mean-pool over time -> logistic): probabilities {np.round(probs, 3)}")
