"""Tests for the encoder network and its sub-blocks."""

import dataclasses
import math

import numpy as np
import pytest

from tabaconv import tensor as tt
from tabaconv.errors import ConfigError
from tabaconv.masking import MaskConfig
from tabaconv.model import (
    Batch,
    ModelConfig,
    aaconv_layer,
    classify_logits,
    embed_inputs,
    encoder_forward,
    forward_mdm,
    init_params,
    mha,
    param_specs,
    positional_encoding,
    pretrain_heads,
    trainable_names,
)
from tabaconv.tensor import Tensor, grad_check, use_dtype
from tabaconv.schema import TS_COMPONENT_NAMES, group_rows_by_user, infer_schema, make_windows
from tabaconv.training import masked_batch, mdm_batch_stats, mdm_loss

TINY = ModelConfig(d_model=16, n_heads=2, kernel_size=3, n_blocks=1, ffn_mult=2, dropout=0.0)


def expected_param_count(schema, cfg: ModelConfig, head: str = "pretrain") -> int:
    """Closed-form parameter count, the reference that `param_specs` is checked against."""
    d = cfg.d_model
    total = sum(f.vocab_size() * d for f in schema.categorical_fields)
    total += len(schema.continuous_fields) * 2 * d
    total += sum(schema.component_sizes()[n] for n in TS_COMPONENT_NAMES) * d
    total += 4 * d + d + d * d + d  # shallow time net
    per_block = (
        cfg.kernel_size * d * cfg.conv_channels + cfg.conv_channels  # conv
        + 3 * d * cfg.attn_channels + cfg.attn_channels ** 2          # q,k,v,mix
        + d * d + d                                                   # pointwise mix
        + 2 * d                                                       # ln1
        + d * (cfg.ffn_mult * d) + cfg.ffn_mult * d
        + (cfg.ffn_mult * d) * d + d                                  # ffn
        + 2 * d                                                       # ln2
    )
    total += cfg.n_blocks * per_block
    if head == "pretrain":
        total += sum(d * f.vocab_size() + f.vocab_size() for f in schema.categorical_fields)
        total += len(schema.continuous_fields) * (d + 1)
    elif head == "classify":
        total += d + 1
    return total


def head_spans(schema) -> dict[str, tuple[int, int]]:
    """Each field's columns in the heads output: categorical fields first, then continuous ones."""
    spans, hi = {}, 0
    for f in schema.categorical_fields + schema.continuous_fields:
        lo, hi = hi, hi + (f.vocab_size() if f.kind == "categorical" else 1)
        spans[f.name] = (lo, hi)
    return spans


def mha_oracle(x, wq, wk, wv, wmix, n_heads):
    """Independent per-head loop implementation of self-attention."""
    b, t, _ = x.shape
    attn = wq.shape[1]
    dk = attn // n_heads
    out = np.zeros((b, t, attn), dtype=x.dtype)
    for bi in range(b):
        q = x[bi] @ wq
        k = x[bi] @ wk
        v = x[bi] @ wv
        merged = np.zeros((t, attn), dtype=x.dtype)
        for h in range(n_heads):
            sl = slice(h * dk, (h + 1) * dk)
            qs, ks, vs = q[:, sl], k[:, sl], v[:, sl]
            scores = qs @ ks.T / math.sqrt(dk)
            for ti in range(t):
                row = scores[ti] - scores[ti].max()
                weights = np.exp(row)
                weights /= weights.sum()
                merged[ti, sl] = weights @ vs
        out[bi] = merged @ wmix
    return out


@pytest.fixture(scope="module")
def env(tiny_env):
    schema = tiny_env["schema"]
    params = init_params(schema, TINY, seed=3, head="pretrain")
    batch = masked_batch(tiny_env["pretrain_samples"][:3], schema, MaskConfig(seed=1), 0, [0, 1, 2])
    return {"schema": schema, "params": params, "batch": batch}


class TestPositionalEncoding:
    def test_row_zero_alternates_sin0_cos0(self):
        pe = positional_encoding(4, 8).data
        np.testing.assert_allclose(pe[0], [0, 1, 0, 1, 0, 1, 0, 1], atol=1e-12)

    def test_bounded(self):
        pe = positional_encoding(50, 16).data
        assert (pe >= -1).all() and (pe <= 1).all()

    def test_sin_of_one(self):
        assert positional_encoding(2, 8).data[1, 0] == pytest.approx(math.sin(1.0), rel=1e-6)

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError):
            positional_encoding(4, 7)


class TestModelConfig:
    def test_defaults_split_channels_evenly(self):
        cfg = ModelConfig()
        assert cfg.attn_channels == 32 and cfg.conv_channels == 32
        assert cfg.attn_channels + cfg.conv_channels == cfg.d_model
        assert cfg.d_head == 8

    def test_default_is_a_single_encoder_block(self):
        assert ModelConfig().n_blocks == 1

    def test_bad_channel_split_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=64, attn_channels=30, conv_channels=30)

    def test_heads_must_divide_attention_channels(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=64, n_heads=5)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(kernel_size=4)


def with_time(batch, components=None, floats=None):
    """`batch` with other timestamp inputs and every other input the same."""
    return dataclasses.replace(batch, ts_components=batch.ts_components if components is None else components,
                               ts_floats=batch.ts_floats if floats is None else floats)


class TestTimestampEmbedding:
    """The timestamp stream of embed_inputs: batches that differ only in their timestamp inputs."""

    def test_deterministic(self, env):
        batch = env["batch"]
        e1, r1 = embed_inputs(batch, env["params"], TINY, env["schema"])
        e2, r2 = embed_inputs(with_time(batch), env["params"], TINY, env["schema"])
        np.testing.assert_array_equal(e1.data, e2.data)
        np.testing.assert_array_equal(r1.data, r2.data)

    def test_zero_floats_zero_biases_contribute_nothing(self, env):
        batch = with_time(env["batch"], floats=np.zeros_like(env["batch"].ts_floats))
        emb, reg = embed_inputs(batch, env["params"], TINY, env["schema"])
        # biases are zero-initialized, so the shallow branch is exactly 0, as with zero weights
        silent = {k: Tensor(np.zeros_like(v.data)) if k.startswith("time.net.") else v
                  for k, v in env["params"].items()}
        np.testing.assert_array_equal(emb.data, embed_inputs(batch, silent, TINY, env["schema"])[0].data)
        assert float(reg.data) == 0.0

    def test_component_delta_is_table_delta(self, env):
        params, batch = env["params"], env["batch"]
        comp, comp2 = batch.ts_components.copy(), batch.ts_components.copy()
        comp[0, 0, 7], comp2[0, 0, 7] = 10, 42
        comp[0, 0, 1], comp2[0, 0, 1] = 3, 11
        e1, _ = embed_inputs(with_time(batch, components=comp), params, TINY, env["schema"])
        e2, _ = embed_inputs(with_time(batch, components=comp2), params, TINY, env["schema"])
        second, month = params["time.comp.second"].data, params["time.comp.month"].data
        diff = e2.data - e1.data
        np.testing.assert_allclose(diff[0, 0], second[42] - second[10] + month[11] - month[3],
                                   rtol=1e-5, atol=1e-6)
        np.testing.assert_array_equal(diff[0, 1:], 0.0)
        np.testing.assert_array_equal(diff[1:], 0.0)

    def test_activity_penalty_scales_with_lambda(self, env):
        batch = env["batch"]
        cfg_big = ModelConfig(d_model=16, n_heads=2, n_blocks=1, ffn_mult=2, dropout=0.0,
                              activity_reg_lambda=1.0)
        _, reg1 = embed_inputs(batch, env["params"], TINY, env["schema"])
        _, reg2 = embed_inputs(batch, env["params"], cfg_big, env["schema"])
        assert float(reg2.data) == pytest.approx(float(reg1.data) / TINY.activity_reg_lambda, rel=1e-6)


class TestEmbedInputs:
    def test_output_shape(self, env):
        h, reg = embed_inputs(env["batch"], env["params"], TINY, env["schema"])
        assert h.shape == (3, 8, 16)
        assert reg.size == 1

    def test_single_token_change_shifts_by_table_delta(self, env):
        batch = env["batch"]
        other = Batch(cat=batch.cat.copy(), cont=batch.cont, ts_components=batch.ts_components,
                      ts_floats=batch.ts_floats)
        old = int(other.cat[0, 0, 0])
        new = 3 if old != 3 else 2
        other.cat[0, 0, 0] = new
        base = Batch(cat=batch.cat, cont=batch.cont, ts_components=batch.ts_components,
                     ts_floats=batch.ts_floats)
        h1, _ = embed_inputs(base, env["params"], TINY, env["schema"])
        h2, _ = embed_inputs(other, env["params"], TINY, env["schema"])
        table = env["params"][f"embed.cat.{env['schema'].categorical_fields[0].name}"].data
        diff = h2.data - h1.data
        np.testing.assert_allclose(diff[0, 0], table[new] - table[old], rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(diff[0, 1:], 0.0, atol=1e-7)
        np.testing.assert_allclose(diff[1:], 0.0, atol=1e-7)

    def test_zero_continuous_value_contributes_projection_bias(self, env):
        schema = env["schema"]
        params = {k: Tensor(v.data.copy(), requires_grad=True) for k, v in env["params"].items()}
        field = schema.continuous_fields[0].name
        params[f"embed.cont.{field}.b"].data[:] = np.arange(16.0, dtype=params[f"embed.cont.{field}.b"].data.dtype)
        batch = env["batch"]
        zeroed = Batch(cat=batch.cat, cont=batch.cont.copy(), ts_components=batch.ts_components,
                       ts_floats=batch.ts_floats)
        zeroed.cont[0, 0, 0] = 0.0
        h_zero, _ = embed_inputs(zeroed, params, TINY, schema)
        # subtracting every other stream leaves exactly the bias at that cell
        params2 = {k: Tensor(v.data.copy(), requires_grad=True) for k, v in params.items()}
        params2[f"embed.cont.{field}.b"].data[:] = 0.0
        h_nobias, _ = embed_inputs(zeroed, params2, TINY, schema)
        np.testing.assert_allclose((h_zero.data - h_nobias.data)[0, 0], np.arange(16.0), rtol=1e-5)

    def test_token_out_of_range_raises(self, env):
        batch = env["batch"]
        bad = Batch(cat=batch.cat.copy(), cont=batch.cont, ts_components=batch.ts_components,
                    ts_floats=batch.ts_floats)
        bad.cat[0, 0, 0] = 10_000
        with pytest.raises(IndexError):
            embed_inputs(bad, env["params"], TINY, env["schema"])


class TestMHA:
    def test_single_position_is_mixed_values(self):
        with use_dtype("float64"):
            rng = np.random.default_rng(0)
            cfg = ModelConfig(d_model=8, n_heads=2, n_blocks=1, dropout=0.0)
            x = rng.normal(size=(2, 1, 8))
            params = {
                "block0.attn.wq": Tensor(rng.normal(size=(8, 4))),
                "block0.attn.wk": Tensor(rng.normal(size=(8, 4))),
                "block0.attn.wv": Tensor(rng.normal(size=(8, 4))),
                "block0.attn.wmix": Tensor(rng.normal(size=(4, 4))),
            }
            out = mha(Tensor(x), params, cfg)
            expected = (x @ params["block0.attn.wv"].data) @ params["block0.attn.wmix"].data
            np.testing.assert_allclose(out.data, expected, rtol=1e-10)

    def test_identical_rows_produce_identical_outputs(self):
        with use_dtype("float64"):
            rng = np.random.default_rng(1)
            cfg = ModelConfig(d_model=8, n_heads=2, n_blocks=1, dropout=0.0)
            row = rng.normal(size=(1, 1, 8))
            x = np.repeat(row, 5, axis=1)
            params = {f"block0.attn.{k}": Tensor(rng.normal(size=(8, 4) if k != "wmix" else (4, 4)))
                      for k in ("wq", "wk", "wv", "wmix")}
            out = mha(Tensor(x), params, cfg).data
            for t in range(1, 5):
                np.testing.assert_allclose(out[:, t], out[:, 0], rtol=1e-10)

    @pytest.mark.parametrize("shape,heads", [((1, 3, 4), 2), ((2, 10, 8), 4)])
    def test_matches_loop_oracle(self, shape, heads):
        with use_dtype("float64"):
            rng = np.random.default_rng(5)
            d = shape[-1]
            attn = d // 2 if (d // 2) % heads == 0 else heads * max(1, d // (2 * heads))
            cfg = ModelConfig(d_model=d, n_heads=heads, n_blocks=1, dropout=0.0,
                              attn_channels=attn, conv_channels=d - attn)
            params = {
                "block0.attn.wq": Tensor(rng.normal(size=(d, attn))),
                "block0.attn.wk": Tensor(rng.normal(size=(d, attn))),
                "block0.attn.wv": Tensor(rng.normal(size=(d, attn))),
                "block0.attn.wmix": Tensor(rng.normal(size=(attn, attn))),
            }
            x = rng.normal(size=shape)
            got = mha(Tensor(x), params, cfg).data
            ref = mha_oracle(x, *(params[f"block0.attn.{k}"].data for k in ("wq", "wk", "wv", "wmix")), heads)
            np.testing.assert_allclose(got, ref, atol=1e-6)

    def test_permutation_equivariance(self):
        with use_dtype("float64"):
            rng = np.random.default_rng(9)
            cfg = ModelConfig(d_model=8, n_heads=2, n_blocks=1, dropout=0.0)
            params = {f"block0.attn.{k}": Tensor(rng.normal(size=(8, 4) if k != "wmix" else (4, 4)))
                      for k in ("wq", "wk", "wv", "wmix")}
            x = rng.normal(size=(2, 7, 8))
            perm = rng.permutation(7)
            out_perm = mha(Tensor(x[:, perm]), params, cfg).data
            perm_out = mha(Tensor(x), params, cfg).data[:, perm]
            np.testing.assert_allclose(out_perm, perm_out, atol=1e-6)


class TestAAConvLayer:
    def make(self, seed=0, padding="zero"):
        rng = np.random.default_rng(seed)
        cfg = ModelConfig(d_model=8, n_heads=2, kernel_size=3, n_blocks=1, dropout=0.0,
                          conv_padding=padding)
        params = {
            "block0.conv.w": Tensor(rng.normal(size=(3, 8, 4))),
            "block0.conv.b": Tensor(rng.normal(size=4)),
            "block0.attn.wq": Tensor(rng.normal(size=(8, 4))),
            "block0.attn.wk": Tensor(rng.normal(size=(8, 4))),
            "block0.attn.wv": Tensor(rng.normal(size=(8, 4))),
            "block0.attn.wmix": Tensor(rng.normal(size=(4, 4))),
            "block0.mix.w": Tensor(rng.normal(size=(1, 8, 8))),
            "block0.mix.b": Tensor(rng.normal(size=8)),
        }
        return cfg, params

    def test_shape_preserved(self):
        with use_dtype("float64"):
            cfg, params = self.make()
            x = np.random.default_rng(1).normal(size=(2, 6, 8))
            assert aaconv_layer(Tensor(x), params, cfg).shape == (2, 6, 8)

    def test_concat_width_equals_d_model(self):
        cfg, _ = self.make()
        assert cfg.conv_channels + cfg.attn_channels == cfg.d_model

    def test_attention_zeroed_reduces_to_mixed_convolution(self):
        with use_dtype("float64"):
            cfg, params = self.make(seed=2)
            for k in ("wq", "wk", "wv", "wmix"):
                params[f"block0.attn.{k}"].data[:] = 0.0
            x = np.random.default_rng(3).normal(size=(2, 6, 8))
            got = aaconv_layer(Tensor(x), params, cfg).data
            conv = tt.conv1d(Tensor(x), params["block0.conv.w"], params["block0.conv.b"]).data
            stacked = np.concatenate([conv, np.zeros((2, 6, 4))], axis=-1)
            ref = tt.conv1d(Tensor(stacked), params["block0.mix.w"], params["block0.mix.b"]).data
            np.testing.assert_allclose(got, ref, atol=1e-6)

    def test_gradients_of_mean_output_match_finite_differences(self):
        with use_dtype("float64"):
            cfg, params = self.make(seed=6)
            for p in params.values():
                p.requires_grad = True
            x = Tensor(np.random.default_rng(7).normal(size=(2, 5, 8)), requires_grad=True)
            checked = dict(params)
            checked["x"] = x
            report = grad_check(
                lambda p: tt.mean_all(aaconv_layer(p["x"], p, cfg)), checked, max_coords=12
            )
        assert report.passed, report.summary()

    def test_conv_path_translation_equivariance_with_circular_padding(self):
        with use_dtype("float64"):
            cfg, params = self.make(seed=4, padding="circular")
            for k in ("wq", "wk", "wv", "wmix"):
                params[f"block0.attn.{k}"].data[:] = 0.0
            x = np.random.default_rng(5).normal(size=(1, 9, 8))
            base = aaconv_layer(Tensor(x), params, cfg).data
            for shift in (1, 3, 6):
                rolled = aaconv_layer(Tensor(np.roll(x, shift, axis=1)), params, cfg).data
                np.testing.assert_allclose(rolled, np.roll(base, shift, axis=1), atol=1e-6)


class TestEncoder:
    def test_zero_blocks_is_identity(self, env):
        cfg = ModelConfig(d_model=16, n_heads=2, n_blocks=0, dropout=0.0)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 16)))
        out = encoder_forward(x, {}, cfg)
        np.testing.assert_array_equal(out.data, x.data)

    def test_param_count_grows_by_one_block(self, env):
        schema = env["schema"]
        one = ModelConfig(d_model=16, n_heads=2, n_blocks=1, ffn_mult=2, dropout=0.0)
        two = ModelConfig(d_model=16, n_heads=2, n_blocks=2, ffn_mult=2, dropout=0.0)
        n1 = sum(p.size for p in init_params(schema, one, head="none").values())
        n2 = sum(p.size for p in init_params(schema, two, head="none").values())
        assert n2 - n1 == expected_param_count(schema, two, "none") - expected_param_count(schema, one, "none")
        assert n2 > n1

    @pytest.mark.parametrize("head", ["pretrain", "classify", "none"])
    def test_closed_form_param_count(self, env, head):
        schema = env["schema"]
        params = init_params(schema, TINY, seed=0, head=head)
        assert sum(p.size for p in params.values()) == expected_param_count(schema, TINY, head)
        specs = param_specs(schema, TINY, head)
        assert sum(math.prod(shape) for shape, _ in specs.values()) == expected_param_count(schema, TINY, head)

    def test_forward_deterministic_without_dropout(self, env):
        preds1, _ = forward_mdm(env["batch"], env["params"], TINY, env["schema"])
        preds2, _ = forward_mdm(env["batch"], env["params"], TINY, env["schema"])
        np.testing.assert_array_equal(preds1.data, preds2.data)

    def test_dropout_reproducible_with_fixed_seed(self, env):
        cfg = ModelConfig(d_model=16, n_heads=2, n_blocks=1, ffn_mult=2, dropout=0.5)
        params = init_params(env["schema"], cfg, seed=3, head="pretrain")
        h, _ = embed_inputs(env["batch"], params, cfg, env["schema"])
        out1 = encoder_forward(h, params, cfg, np.random.default_rng(7)).data
        out2 = encoder_forward(h, params, cfg, np.random.default_rng(7)).data
        out3 = encoder_forward(h, params, cfg, np.random.default_rng(8)).data
        np.testing.assert_array_equal(out1, out2)
        assert not np.array_equal(out1, out3)


class TestHeads:
    def test_pretrain_head_shapes(self, env):
        schema = env["schema"]
        preds, _ = forward_mdm(env["batch"], env["params"], TINY, schema)
        width = sum(f.vocab_size() for f in schema.categorical_fields) + len(schema.continuous_fields)
        assert isinstance(preds, Tensor) and preds.shape == (3, 8, width)
        assert max(hi for _, hi in head_spans(schema).values()) == width

    def test_fused_heads_equal_per_field_linear(self, env):
        schema = env["schema"]
        with use_dtype("float64"):
            params = init_params(schema, TINY, seed=4, head="pretrain")
            h = Tensor(np.random.default_rng(5).normal(size=(2, 8, 16)))
            preds = pretrain_heads(h, params, schema)
            spans = head_spans(schema)
            for kind, fields in (("cat", schema.categorical_fields), ("cont", schema.continuous_fields)):
                for f in fields:
                    lo, hi = spans[f.name]
                    ref = tt.linear(h, params[f"head.{kind}.{f.name}.w"], params[f"head.{kind}.{f.name}.b"])
                    np.testing.assert_allclose(preds.data[..., lo:hi], ref.data, rtol=1e-12, atol=1e-12)
        assert preds.shape[-1] == max(hi for _, hi in spans.values())

    def test_zero_weight_head_outputs_bias(self, env):
        schema = env["schema"]
        params = {k: Tensor(v.data.copy()) for k, v in env["params"].items()}
        f = schema.categorical_fields[0]
        params[f"head.cat.{f.name}.w"].data[:] = 0.0
        params[f"head.cat.{f.name}.b"].data[:] = np.arange(f.vocab_size())
        h = Tensor(np.random.default_rng(0).normal(size=(2, 8, 16)))
        lo, hi = head_spans(schema)[f.name]
        preds = pretrain_heads(h, params, schema)
        np.testing.assert_allclose(preds.data[..., lo:hi],
                                   np.broadcast_to(np.arange(f.vocab_size()), (2, 8, f.vocab_size())),
                                   rtol=1e-6)

    def test_zero_classifier_gives_half(self):
        params = {"clf.w": Tensor(np.zeros((16, 1))), "clf.b": Tensor(np.zeros(1))}
        h = Tensor(np.random.default_rng(0).normal(size=(4, 8, 16)))
        probs = tt.sigmoid(classify_logits(h, params).data)
        np.testing.assert_allclose(probs, np.full(4, 0.5), atol=1e-7)

    def test_probability_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(1)
        params = {"clf.w": Tensor(rng.normal(size=(16, 1)) * 2), "clf.b": Tensor(rng.normal(size=1))}
        h = Tensor(rng.normal(size=(8, 5, 16)))
        probs = tt.sigmoid(classify_logits(h, params).data)
        assert ((probs > 0) & (probs < 1)).all()

    def test_mean_pool_permutation_invariance(self):
        rng = np.random.default_rng(2)
        params = {"clf.w": Tensor(rng.normal(size=(16, 1))), "clf.b": Tensor(rng.normal(size=1))}
        h = rng.normal(size=(3, 7, 16))
        base = classify_logits(Tensor(h), params).data
        perm = rng.permutation(7)
        permuted = classify_logits(Tensor(h[:, perm]), params).data
        np.testing.assert_allclose(permuted, base, rtol=1e-5)


class TestFreezing:
    def test_trainable_names_exclude_embeddings_in_finetune(self, env):
        params = init_params(env["schema"], TINY, head="classify")
        names = trainable_names(params, "finetune")
        assert all(not n.startswith(("embed.", "time.")) for n in names)
        assert any(n.startswith("block0.") for n in names)
        assert "clf.w" in names
        assert set(trainable_names(params, "scratch")) == set(params)


def test_end_to_end_gradient_check_small(tiny_env):
    """Quick whole-model check; the acceptance suite runs the full-size one."""
    with use_dtype("float64"):
        schema = tiny_env["schema"]
        cfg = ModelConfig(d_model=8, n_heads=2, kernel_size=3, n_blocks=1, ffn_mult=2, dropout=0.0)
        params = init_params(schema, cfg, seed=0, head="pretrain")
        batch = masked_batch(tiny_env["pretrain_samples"][:2], schema, MaskConfig(seed=2), 0, [0, 1])

        def loss(p):
            preds, reg = forward_mdm(batch, p, cfg, schema)
            return mdm_loss(preds, batch, reg, schema)

        report = grad_check(loss, params, max_coords=4, seed=0)
    assert report.passed, report.summary()


def test_schema_without_continuous_fields(tiny_env):
    """No continuous field: no projection node, no continuous loss, and the gradients still check."""
    roles = {**tiny_env["roles"], "columns": {
        name: "ignore" if role == "continuous" else role for name, role in tiny_env["roles"]["columns"].items()}}
    schema = infer_schema(tiny_env["csv"], roles)
    assert schema.continuous_fields == [] and schema.categorical_fields
    header, rows = tiny_env["header"], tiny_env["rows"]
    samples = make_windows(schema, header, group_rows_by_user(header, rows, schema), 8, 4, "pretrain")
    batch = masked_batch(samples[:3], schema, MaskConfig(seed=2), 0, [0, 1, 2])
    cfg = ModelConfig(d_model=8, n_heads=2, kernel_size=3, n_blocks=1, ffn_mult=2, dropout=0.0)
    with use_dtype("float64"):
        params = init_params(schema, cfg, seed=0, head="pretrain")
        preds, reg = forward_mdm(batch, params, cfg, schema)
        assert preds.shape == (3, 8, sum(f.vocab_size() for f in schema.categorical_fields))
        stats = mdm_batch_stats(preds, batch, schema)
        assert stats["cont_total"] == 0 and stats["cont_sse"] == 0.0 and stats["cat_total"] > 0

        def loss(p):
            preds, reg = forward_mdm(batch, p, cfg, schema)
            return mdm_loss(preds, batch, reg, schema)

        report = grad_check(loss, params, max_coords=4, seed=0)
    assert report.passed, report.summary()


def test_default_pretraining_loss_graph_size(tiny_env):
    """Nodes reachable from one pretraining loss of the default model, dropout on.

    Pinned so that a change which adds nodes per step shows here; the count
    falls when ops are fused (each linear layer with its bias, the whole
    self-attention, all reconstruction heads and all continuous input
    projections are one node each).
    """
    schema = tiny_env["schema"]
    samples = tiny_env["pretrain_samples"][:32]
    cfg = ModelConfig()
    params = init_params(schema, cfg, seed=0, head="pretrain")
    batch = masked_batch(samples, schema, MaskConfig(seed=0), 0, list(range(len(samples))))
    assert batch.cat_mask.any(axis=(0, 1)).all() and batch.cont_mask.any(axis=(0, 1)).all()
    preds, reg = forward_mdm(batch, params, cfg, schema, dropout_rng=np.random.default_rng(0))
    loss = mdm_loss(preds, batch, reg, schema)
    seen, stack, ops = set(), [loss], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops += node._backward is not None
            stack.extend(node._parents)
    assert ops == 32

