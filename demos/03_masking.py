#!/usr/bin/env python3
"""Field and row masking: what a pretraining input looks like and how the
empirical mask rates behave."""

import numpy as np

from tabaconv.masking import MaskConfig, apply_mask, sample_mask_plan
from tabaconv.schema import FeatureSchema, FieldSpec, WindowSample

fields = [FieldSpec(name=n, kind="categorical", vocab={chr(97 + i): 2 + i for i in range(6)})
          for n in ("merchant", "category", "city")]
fields += [FieldSpec(name=n, kind="continuous", mean=0.0, std=1.0) for n in ("amount", "gap")]
schema = FeatureSchema(fields=fields, user_column="u", timestamp_column="t",
                       label_column=None, t_min=0, t_max=10**9)

rng = np.random.default_rng(0)
sample = WindowSample(
    cat_tokens=rng.integers(2, 8, size=(8, 3)).astype(np.int32),
    cont_values=rng.normal(size=(8, 2)).astype(np.float32).round(2),
    ts_components=np.zeros((8, 8), dtype=np.int32),
    ts_floats=np.zeros((8, 4), dtype=np.float32),
    user_id="demo",
)

cfg = MaskConfig(p_field=0.30, p_row=0.15, seed=0)
plan = sample_mask_plan(8, schema, cfg, np.random.default_rng(4))
masked = apply_mask(sample, plan, schema)

print("row mask (whole transactions hidden):", plan.row_mask.astype(int))
print("\ncategorical tokens, original -> masked (1 = MASK token):")
for t in range(8):
    print(" ", sample.cat_tokens[t], "->", masked.cat_tokens[t])
print("\ncontinuous cells, original -> masked (masked cells become the mean, 0 in z-space):")
for t in range(8):
    print(" ", sample.cont_values[t], "->", masked.cont_values[t])
print("\nreconstruction targets (the original values at masked cells):")
print("  categorical:", sample.cat_tokens[plan.cat_mask])
print("  continuous: ", sample.cont_values[plan.cont_mask])

print("\n== empirical rates over 20k windows ==")
rows = rows_masked = cells = cells_masked = 0
stream = np.random.default_rng(1)
for _ in range(20_000):
    p = sample_mask_plan(8, schema, cfg, stream)
    rows += 8
    rows_masked += int(p.row_mask.sum())
    outside = ~p.row_mask
    cells += int(outside.sum()) * 5
    cells_masked += int(p.field_mask[outside].sum())
print(f"row rate {rows_masked / rows:.4f} (target 0.15), "
      f"field rate outside masked rows {cells_masked / cells:.4f} (target 0.30), "
      f"overall cell rate {1 - (1 - rows_masked / rows) * (1 - cells_masked / cells):.4f} "
      f"(closed form 0.405)")
