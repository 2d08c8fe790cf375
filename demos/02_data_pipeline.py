#!/usr/bin/env python3
"""From a raw CSV to model-ready windows, along the path the CLI takes: one
streamed read into per-column arrays, a user split, schema inference on the
training users, calendar decomposition, and sliding-window samples."""

import tempfile
from pathlib import Path

from tabaconv import synth
from tabaconv.schema import (
    decompose_timestamp,
    group_rows_by_user,
    infer_schema,
    make_windows,
    read_columns,
    split_users,
    time_floats,
)

workdir = Path(tempfile.mkdtemp())
cfg = synth.SynthConfig(n_users=4, rows_per_user=25, fraud_rate=0.04, seed=1)
csv_path, manifest_path = synth.generate(cfg, workdir)
print("generated", csv_path)

roles = synth.default_roles()
log = read_columns(csv_path, roles=roles)  # 4096 rows of strings at a time, then dropped
print(f"\n== streamed columns ({log.n_rows} rows) ==")
print("users in first-appearance order:", log.users)
print("merchant codes of the first rows:", log.codes["merchant"][:8].tolist(),
      "->", log.values["merchant"][:4])
print("timestamps (int64 epoch seconds):", log.stamps[:3].tolist())
train_users, val_users, test_users = map(set, split_users(log.users))

schema = infer_schema(csv_path, roles, include_users=train_users, parsed=log)
print("\n== inferred schema (training users only) ==")
for f in schema.fields:
    extra = ""
    if f.kind == "categorical":
        extra = f"vocab={f.vocab_size()} (ids 0/1 reserved for PAD/MASK)"
    elif f.kind == "continuous":
        extra = f"mean={f.mean:.2f} std={f.std:.2f}"
    print(f"  {f.name:12s} {f.kind:12s} {extra}")
print("time span:", schema.t_min, "->", schema.t_max)

ts = schema.t_min
print("\n== timestamp decomposition ==")
year, month, day, weekday, week, hour, minute, second = decompose_timestamp(ts)
print(f"epoch {ts} -> {year}-{month:02d}-{day:02d}, weekday {weekday} (Mon=0), "
      f"ISO week {week}, {hour:02d}:{minute:02d}:{second:02d}")
print("normalized time features:", [round(v, 4) for v in time_floats(ts, schema)])

grouped = group_rows_by_user(log.header, log, schema, users=train_users)  # one stable lexsort
pre = make_windows(schema, log.header, grouped, window=10, stride=5, mode="pretrain")
down = make_windows(schema, log.header, grouped, window=10, stride=10, mode="downstream")
n_rows = len(grouped.order)
print("\n== windowing (training users) ==")
print(f"{n_rows} rows -> {len(pre)} pretraining windows (W=10, S=5, labels stripped)")
print(f"{n_rows} rows -> {len(down)} downstream windows (W=10, S=10, label = any row fraudulent)")
w = pre[0]
print("one window:", w.cat_tokens.shape, "categorical tokens,",
      w.cont_values.shape, "z-scored values,", w.ts_components.shape, "calendar components")
