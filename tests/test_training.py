"""Tests for losses, the optimizer, training loops and checkpoints."""

import hashlib
import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabaconv.errors import (
    ConfigError,
    ContractError,
    IntegrityError,
    NumericError,
    ShapeError,
    UnsupportedVersionError,
)
from tabaconv.masking import MaskConfig
from tabaconv.model import Batch, ModelConfig, forward_classify, forward_mdm, init_params, trainable_names
from tabaconv.tensor import Tensor, sigmoid, use_dtype
from tabaconv.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    GRAD_CLIP,
    AdamState,
    Checkpoint,
    TrainConfig,
    adam_step,
    bce_loss,
    clip_global_norm,
    evaluate,
    f1_binary,
    finetune,
    load_checkpoint,
    masked_batch,
    mdm_batch_stats,
    mdm_loss,
    precision_recall_f1,
    predict_proba,
    pretrain,
    save_checkpoint,
    stack_batch,
)

TINY = ModelConfig(d_model=16, n_heads=2, kernel_size=3, n_blocks=1, ffn_mult=2, dropout=0.0)


def empty_mask_batch(schema, t_len=4, vocab=6):
    n_cat = len(schema.categorical_fields)
    n_cont = len(schema.continuous_fields)
    return Batch(
        cat=np.full((1, t_len, n_cat), 2, dtype=np.int32),
        cont=np.zeros((1, t_len, n_cont), dtype=np.float32),
        ts_components=np.zeros((1, t_len, 8), dtype=np.int32),
        ts_floats=np.zeros((1, t_len, 4), dtype=np.float32),
        cat_mask=np.zeros((1, t_len, n_cat), dtype=bool),
        cont_mask=np.zeros((1, t_len, n_cont), dtype=bool),
        cat_targets=np.full((1, t_len, n_cat), 2, dtype=np.int32),
        cont_targets=np.zeros((1, t_len, n_cont), dtype=np.float32),
    )


class TestMdmLoss:
    def test_empty_plan_returns_reg_only(self, tiny_env):
        schema = tiny_env["schema"]
        batch = empty_mask_batch(schema)
        preds = {f.name: Tensor(np.zeros((1, 4, f.vocab_size()))) for f in schema.categorical_fields}
        preds.update({f.name: Tensor(np.zeros((1, 4, 1))) for f in schema.continuous_fields})
        reg = Tensor(np.asarray(0.125))
        loss = mdm_loss(preds, batch, reg, schema)
        assert float(loss.data) == 0.125

    def test_uniform_logits_give_log_vocab(self, tiny_env):
        schema = tiny_env["schema"]
        batch = empty_mask_batch(schema)
        batch.cat_mask[0, 1, 0] = True
        f = schema.categorical_fields[0]
        preds = {g.name: Tensor(np.zeros((1, 4, g.vocab_size()))) for g in schema.categorical_fields}
        preds.update({g.name: Tensor(np.zeros((1, 4, 1))) for g in schema.continuous_fields})
        loss = mdm_loss(preds, batch, Tensor(np.asarray(0.0)), schema)
        assert float(loss.data) == pytest.approx(math.log(f.vocab_size()), rel=1e-6)

    def test_single_continuous_cell_mse(self, tiny_env):
        schema = tiny_env["schema"]
        batch = empty_mask_batch(schema)
        batch.cont_mask[0, 2, 0] = True
        batch.cont_targets[0, 2, 0] = 0.0
        preds = {g.name: Tensor(np.zeros((1, 4, g.vocab_size()))) for g in schema.categorical_fields}
        cont_pred = np.zeros((1, 4, 1))
        cont_pred[0, 2, 0] = 0.5
        preds.update({g.name: Tensor(cont_pred if g.name == schema.continuous_fields[0].name
                                     else np.zeros((1, 4, 1)))
                      for g in schema.continuous_fields})
        loss = mdm_loss(preds, batch, Tensor(np.asarray(0.0)), schema)
        assert float(loss.data) == pytest.approx(0.25, rel=1e-6)

    def test_bitwise_invariant_to_unmasked_predictions(self, tiny_env):
        schema = tiny_env["schema"]
        rng = np.random.default_rng(0)
        batch = masked_batch(tiny_env["pretrain_samples"][:3], schema, MaskConfig(seed=4), 0, [0, 1, 2])

        def build_preds(perturb):
            preds = {}
            for f in schema.categorical_fields:
                arr = np.asarray(rng.normal(size=(3, 8, f.vocab_size())), dtype=np.float32)
                preds[f.name] = (arr, batch.cat_mask[:, :, list(schema.categorical_fields).index(f)])
            return preds

        base_cat = {f.name: np.asarray(np.random.default_rng(1).normal(size=(3, 8, f.vocab_size())),
                                       dtype=np.float32)
                    for f in schema.categorical_fields}
        base_cont = {f.name: np.asarray(np.random.default_rng(2).normal(size=(3, 8, 1)), dtype=np.float32)
                     for f in schema.continuous_fields}
        preds1 = {k: Tensor(v) for k, v in {**base_cat, **base_cont}.items()}
        loss1 = mdm_loss(preds1, batch, Tensor(np.asarray(0.0)), schema)

        perturbed_cat = {}
        for c, f in enumerate(schema.categorical_fields):
            arr = base_cat[f.name].copy()
            arr[~batch.cat_mask[:, :, c]] += 123.456  # only unmasked positions move
            perturbed_cat[f.name] = arr
        perturbed_cont = {}
        for c, f in enumerate(schema.continuous_fields):
            arr = base_cont[f.name].copy()
            arr[~batch.cont_mask[:, :, c]] -= 77.7
            perturbed_cont[f.name] = arr
        preds2 = {k: Tensor(v) for k, v in {**perturbed_cat, **perturbed_cont}.items()}
        loss2 = mdm_loss(preds2, batch, Tensor(np.asarray(0.0)), schema)
        assert loss1.data.tobytes() == loss2.data.tobytes()


def per_field(preds, schema):
    """The heads output split into each field's columns, by field name."""
    out, hi = {}, 0
    for f in schema.categorical_fields + schema.continuous_fields:
        lo, hi = hi, hi + (f.vocab_size() if f.kind == "categorical" else 1)
        out[f.name] = Tensor(preds.data[..., lo:hi])
    return out


def _per_field_stats(preds, batch, schema):
    """Reference: the masked-cell counters gathered field by field."""
    stats = {"cat_total": 0, "cat_correct": 0, "cont_total": 0, "cont_sse": 0.0}
    for c, f in enumerate(schema.categorical_fields):
        b_idx, t_idx = np.nonzero(batch.cat_mask[:, :, c])
        stats["cat_total"] += len(b_idx)
        stats["cat_correct"] += int((preds[f.name].data[b_idx, t_idx].argmax(axis=-1)
                                     == batch.cat_targets[b_idx, t_idx, c]).sum())
    for c, f in enumerate(schema.continuous_fields):
        b_idx, t_idx = np.nonzero(batch.cont_mask[:, :, c])
        stats["cont_total"] += len(b_idx)
        diff = preds[f.name].data[b_idx, t_idx, 0] - batch.cont_targets[b_idx, t_idx, c]
        stats["cont_sse"] += float((diff.astype(np.float64) ** 2).sum())
    return stats


class TestHeadColumns:
    @pytest.fixture
    def forward(self, tiny_env):
        schema = tiny_env["schema"]
        batch = masked_batch(tiny_env["pretrain_samples"][:6], schema, MaskConfig(seed=5), 0, list(range(6)))
        params = init_params(schema, TINY, seed=6, head="pretrain")
        preds, reg = forward_mdm(batch, params, TINY, schema)
        return schema, batch, preds, reg

    def test_plain_dict_runs_the_same_loss(self, forward):
        schema, batch, preds, reg = forward
        fused = mdm_loss(preds, batch, reg, schema)
        adapted = mdm_loss(per_field(preds, schema), batch, reg, schema)  # column spans, joined again
        assert fused.data.tobytes() == adapted.data.tobytes()

    def test_batch_stats_match_per_field_reference(self, forward):
        schema, batch, preds, _ = forward
        fields = per_field(preds, schema)
        got, want = mdm_batch_stats(preds, batch, schema), _per_field_stats(fields, batch, schema)
        assert {k: got[k] for k in ("cat_total", "cat_correct", "cont_total")} == \
            {k: want[k] for k in ("cat_total", "cat_correct", "cont_total")}
        assert got["cat_total"] > 0 and got["cont_total"] > 0
        assert got["cont_sse"] == pytest.approx(want["cont_sse"], rel=1e-5)
        assert mdm_batch_stats(fields, batch, schema) == got

    def test_heads_output_of_another_width_rejected(self, forward):
        schema, batch, preds, reg = forward
        with pytest.raises(ShapeError, match="columns wide for this schema"):
            mdm_loss(Tensor(preds.data[..., 1:]), batch, reg, schema)

    def test_wide_continuous_prediction_rejected(self, tiny_env):
        schema = tiny_env["schema"]
        batch = empty_mask_batch(schema)
        batch.cont_mask[0, 0, 0] = True
        preds = {f.name: Tensor(np.zeros((1, 4, f.vocab_size()))) for f in schema.categorical_fields}
        preds.update({f.name: Tensor(np.zeros((1, 4, 2))) for f in schema.continuous_fields})
        with pytest.raises(ShapeError, match="one column wide"):
            mdm_loss(preds, batch, Tensor(np.asarray(0.0)), schema)


class TestBce:
    def test_half_probability_gives_log_two(self):
        for label in (0.0, 1.0):
            loss = bce_loss(Tensor(np.asarray([0.0])), np.asarray([label]))
            assert float(loss.data) == pytest.approx(math.log(2), rel=1e-6)

    def test_huge_logit_stable(self):
        loss = bce_loss(Tensor(np.asarray([1000.0])), np.asarray([1.0]))
        assert 0.0 <= float(loss.data) < 1e-6

    def test_confident_wrong_prediction(self):
        logit = math.log(0.9 / 0.1)  # probability 0.9
        loss = bce_loss(Tensor(np.asarray([logit])), np.asarray([0.0]))
        assert float(loss.data) == pytest.approx(2.302585092994046, rel=1e-5)


class TestTrainConfig:
    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="--seed"):
            TrainConfig(seed=-3)


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        params = {"w": Tensor(np.ones(4), requires_grad=True)}
        params["w"].grad = np.zeros(4, dtype=params["w"].dtype)
        state = AdamState(params, ["w"])
        adam_step(state, TrainConfig())
        np.testing.assert_array_equal(params["w"].data, np.ones(4, dtype=np.float32))

    def test_first_step_is_signed_learning_rate(self):
        g = np.asarray([0.5, -2.0, 10.0, -0.01], dtype=np.float32)
        params = {"w": Tensor(np.zeros(4), requires_grad=True)}
        params["w"].grad = g.copy()
        state = AdamState(params, ["w"])
        cfg = TrainConfig(learning_rate=1e-3)
        adam_step(state, cfg)
        np.testing.assert_allclose(params["w"].data, -1e-3 * np.sign(g), rtol=1e-3)

    def test_identical_tensors_update_identically(self):
        g = np.asarray([1.0, -1.0], dtype=np.float32)
        params = {"a": Tensor(np.ones(2), requires_grad=True),
                  "b": Tensor(np.ones(2), requires_grad=True)}
        params["a"].grad = g.copy()
        params["b"].grad = g.copy()
        state = AdamState(params, ["a", "b"])
        adam_step(state, TrainConfig())
        np.testing.assert_array_equal(params["a"].data, params["b"].data)

    def test_non_finite_gradient_names_parameter(self):
        params = {"oddball": Tensor(np.ones(2), requires_grad=True)}
        params["oddball"].grad = np.asarray([np.nan, 1.0], dtype=np.float32)
        state = AdamState(params, ["oddball"])
        with pytest.raises(NumericError, match="oddball"):
            adam_step(state, TrainConfig())


def reference_clip_adam(params, names, ref, cfg):
    """The per-parameter clip and Adam that the flat buffer replaced; missing grads count as zero."""
    total = 0.0
    for n in names:
        g = params[n].grad
        if g is not None:
            total += float((g.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if norm > GRAD_CLIP:
        for n in names:
            if params[n].grad is not None:
                params[n].grad *= GRAD_CLIP / norm
    ref["t"] += 1
    c1 = 1.0 - ADAM_BETA1 ** ref["t"]
    c2 = 1.0 - ADAM_BETA2 ** ref["t"]
    for n in names:
        p = params[n]
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m, v = ref["m"][n], ref["v"][n]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        update = (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        p.data -= (cfg.learning_rate * update).astype(p.data.dtype)
    return norm


class TestFlatBuffer:
    """Clip and Adam over the flat buffer against the per-parameter reference, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_norm_equals_per_parameter_squares(self, dtype):
        # odd parameter sizes put every slice of the squares at a different alignment
        rng = np.random.default_rng(30)
        for trial in range(30):
            sizes = rng.integers(1, 3000, size=int(rng.integers(1, 12)))
            with use_dtype(dtype):
                params = {f"p{i}": Tensor(np.zeros(int(n)), requires_grad=True)
                          for i, n in enumerate(sizes)}
            state = AdamState(params, list(params))
            scale = 10.0 ** rng.uniform(-4, 2)
            grads = {n: (rng.normal(size=p.data.shape) * scale).astype(dtype) for n, p in params.items()}
            for n, p in params.items():
                p.grad[...] = grads[n]
            assert state.grad.dtype == dtype
            expected = 0.0
            for g in grads.values():
                expected += float(np.square(g, dtype=np.float64).sum())
            assert clip_global_norm(state) == math.sqrt(expected), trial

    def pair(self, tiny_env, seed=5):
        flat = init_params(tiny_env["schema"], TINY, seed=seed, head="pretrain")
        ref = init_params(tiny_env["schema"], TINY, seed=seed, head="pretrain")
        names = list(flat)
        moments = {"t": 0, "m": {n: np.zeros_like(ref[n].data) for n in names},
                   "v": {n: np.zeros_like(ref[n].data) for n in names}}
        return flat, ref, names, AdamState(flat, names), moments

    def assert_same(self, flat, ref, names, step):
        for n in names:
            assert flat[n].data.tobytes() == ref[n].data.tobytes(), (step, n)

    def test_steps_match_reference(self, tiny_env):
        from tabaconv.tensor import _accumulate

        flat, ref, names, state, moments = self.pair(tiny_env)
        cfg = TrainConfig()
        rng = np.random.default_rng(0)
        skipped = names[3]
        clipped = []
        for step, scale in enumerate([10.0, 1e-3, 0.05, 1.0]):
            state.zero_grad()
            for p in ref.values():
                p.grad = None
            for n in names:
                if step == 1 and n == skipped:
                    continue  # a parameter the loss did not reach this step
                # a float64 then a float32 contribution, as backward hands them over
                for dtype in (np.float64, np.float32):
                    g = (rng.normal(size=flat[n].data.shape) * scale).astype(dtype)
                    _accumulate(flat[n], g)
                    _accumulate(ref[n], g)
            norm = clip_global_norm(state)
            adam_step(state, cfg)
            assert norm == reference_clip_adam(ref, names, moments, cfg)
            clipped.append(norm > GRAD_CLIP)
            self.assert_same(flat, ref, names, step)
        assert clipped[0] and not all(clipped)

    def test_rebound_gradient_and_value_are_honoured(self, tiny_env):
        flat, ref, names, state, moments = self.pair(tiny_env)
        cfg = TrainConfig()
        rng = np.random.default_rng(1)
        for step in range(3):
            state.zero_grad()
            for n in names:
                g = rng.normal(size=flat[n].data.shape).astype(np.float32) * 0.01
                flat[n].grad = g.copy()  # rebinds instead of accumulating into the buffer
                ref[n].grad = g
            flat[names[0]].grad = None
            ref[names[0]].grad = None
            value = np.full(flat[names[1]].data.shape, 0.5, dtype=np.float32)
            flat[names[1]].data = value.copy()
            ref[names[1]].data = value
            clip_global_norm(state)
            adam_step(state, cfg)
            reference_clip_adam(ref, names, moments, cfg)
            self.assert_same(flat, ref, names, step)
            assert all(np.shares_memory(flat[n].data, state.data) for n in names)

    def test_rebound_gradient_of_wrong_shape_rejected(self, tiny_env):
        flat, _, names, state, _ = self.pair(tiny_env)
        flat[names[0]].grad = np.zeros(flat[names[0]].data.size + 1, dtype=np.float32)
        with pytest.raises(ContractError, match=names[0]):
            clip_global_norm(state)

    def test_non_finite_gradient_names_parameter_and_changes_nothing(self, tiny_env):
        flat, ref, names, state, _ = self.pair(tiny_env)
        state.zero_grad()
        for p in flat.values():
            p.grad += 0.01
        flat[names[5]].grad.flat[0] = np.inf
        with pytest.raises(NumericError, match=f"parameter {names[5]!r}"):
            adam_step(state, TrainConfig())
        self.assert_same(flat, ref, names, 0)

    def test_frozen_parameters_stay_outside(self, tiny_env, trained):
        ckpt = trained["ckpt"]
        params = {n: Tensor(a.copy()) for n, a in ckpt.params.items()}
        names = trainable_names(params, "finetune")
        frozen = [n for n in params if n not in names]
        assert frozen
        for n in names:
            params[n].requires_grad = True
        state = AdamState(params, names)
        for _ in range(3):
            state.zero_grad()
            for n in names:
                params[n].grad += 0.1
            clip_global_norm(state)
            adam_step(state, TrainConfig())
        for n in frozen:
            assert params[n].grad is None and not np.shares_memory(params[n].data, state.data)
            assert params[n].data.tobytes() == ckpt.params[n].tobytes(), n
        assert all(params[n].data.tobytes() != ckpt.params[n].tobytes() for n in names)


class TestF1:
    def test_perfect(self):
        assert f1_binary([1, 0, 1, 0], [1, 0, 1, 0]) == 1.0

    def test_hand_confusion(self):
        # TP=2, FP=1, FN=1 -> P = R = 2/3 -> F1 = 2/3
        preds = [1, 1, 1, 0, 0]
        labels = [1, 1, 0, 1, 0]
        assert f1_binary(preds, labels) == pytest.approx(2 / 3)

    def test_all_negative_predictions(self):
        assert f1_binary([0, 0, 0], [0, 1, 0]) == 0.0

    def test_empty_confusion_convention(self):
        assert f1_binary([0, 0], [0, 0]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            f1_binary([1], [1, 0])

    def test_against_bruteforce_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            preds = rng.integers(0, 2, size=1000)
            labels = rng.integers(0, 2, size=1000)
            tp = fp = fn = 0
            for p, y in zip(preds, labels):
                if p == 1 and y == 1:
                    tp += 1
                elif p == 1 and y == 0:
                    fp += 1
                elif p == 0 and y == 1:
                    fn += 1
            if tp + fp + fn == 0 or tp == 0:
                expected = 0.0
            else:
                prec = tp / (tp + fp)
                rec = tp / (tp + fn)
                expected = 2 * prec * rec / (prec + rec)
            assert f1_binary(preds, labels) == pytest.approx(expected, rel=1e-12)
            p, r, f = precision_recall_f1(preds, labels)
            assert f == pytest.approx(expected, rel=1e-12)


@pytest.fixture(scope="module")
def trained(tiny_env):
    schema = tiny_env["schema"]
    tcfg = TrainConfig(epochs=2, batch_size=8, seed=0)
    ckpt, records = pretrain(tiny_env["pretrain_samples"], schema, TINY, tcfg, MaskConfig(seed=0))
    return {"ckpt": ckpt, "records": records, "schema": schema}


class TestPretrainLoop:
    def test_zero_samples_gives_step_zero_checkpoint(self, tiny_env):
        ckpt, records = pretrain(tiny_env["pretrain_samples"][:0], tiny_env["schema"], TINY,
                                 TrainConfig(epochs=1, seed=0), MaskConfig(seed=0))
        assert ckpt.step == 0
        assert len(records) == 1

    def test_first_epoch_loss_finite_positive(self, trained):
        assert math.isfinite(trained["records"][0]["loss"])
        assert trained["records"][0]["loss"] > 0

    def test_records_shape(self, trained):
        assert [r["epoch"] for r in trained["records"]] == [0, 1]
        for r in trained["records"]:
            assert set(r) == {"epoch", "loss", "masked_cat_acc", "masked_cont_mse",
                              "grad_norm_mean", "grad_norm_max", "clipped_frac"}
            assert 0.0 < r["grad_norm_mean"] <= r["grad_norm_max"]
            assert 0.0 <= r["clipped_frac"] <= 1.0

    def test_labeled_samples_rejected(self, tiny_env):
        with pytest.raises(ContractError):
            pretrain(tiny_env["downstream_samples"], tiny_env["schema"], TINY,
                     TrainConfig(epochs=1), MaskConfig())

    def test_single_batch_step_decreases_loss_over_seeds(self, tiny_env):
        schema = tiny_env["schema"]
        for seed in range(5):
            params = init_params(schema, TINY, seed=seed, head="pretrain")
            batch = masked_batch(tiny_env["pretrain_samples"][:8], schema,
                                 MaskConfig(seed=seed), 0, list(range(8)))
            from tabaconv.model import forward_mdm

            def loss_value():
                preds, reg = forward_mdm(batch, params, TINY, schema)
                return mdm_loss(preds, batch, reg, schema)

            before = loss_value()
            for p in params.values():
                p.grad = None
            before.backward()
            state = AdamState(params, list(params))
            adam_step(state, TrainConfig(learning_rate=1e-3))
            after = loss_value()
            assert float(after.data) < float(before.data), f"seed {seed}"

    @pytest.mark.parametrize("chunk_windows", [1, 20, None])
    def test_epoch_equals_a_loop_over_masked_batch(self, tiny_env, monkeypatch, chunk_windows):
        # pretrain draws the masks of up to MASK_CHUNK_WINDOWS windows at once (1: one batch;
        # 20: two batches of 8, so the last chunk holds the 4-window tail; None: the default,
        # all 36 windows); the parameters must equal those of a plain per-batch loop
        from tabaconv import training
        from tabaconv.model import forward_mdm

        if chunk_windows is not None:
            monkeypatch.setattr(training, "MASK_CHUNK_WINDOWS", chunk_windows)
        samples, schema = tiny_env["pretrain_samples"], tiny_env["schema"]
        mcfg = ModelConfig(d_model=16, n_heads=2, kernel_size=3, n_blocks=1, ffn_mult=2, dropout=0.1)
        tcfg = TrainConfig(epochs=1, batch_size=8, seed=3)
        mask_cfg = MaskConfig(seed=2**40 + 9)
        ckpt, _ = pretrain(samples, schema, mcfg, tcfg, mask_cfg)

        params = init_params(schema, mcfg, seed=tcfg.seed, head="pretrain")
        state = AdamState(params, list(params))
        order = np.random.default_rng(np.random.SeedSequence([tcfg.seed, 101, 0])).permutation(len(samples))
        drop_rng = np.random.default_rng(np.random.SeedSequence([tcfg.seed, 202, 0]))
        for start in range(0, len(samples), tcfg.batch_size):
            idx = order[start : start + tcfg.batch_size]
            batch = masked_batch(samples[idx], schema, mask_cfg, 0, [int(i) for i in idx])
            preds, reg = forward_mdm(batch, params, mcfg, schema, dropout_rng=drop_rng)
            loss = mdm_loss(preds, batch, reg, schema)
            state.zero_grad()
            loss.backward()
            clip_global_norm(state)
            adam_step(state, tcfg)
        assert len(samples) % tcfg.batch_size and len(samples) > 20
        assert ckpt.params.keys() == params.keys()
        for name, p in params.items():
            assert ckpt.params[name].tobytes() == p.data.tobytes(), name

    def test_full_run_determinism(self, tiny_env, trained):
        ckpt2, records2 = pretrain(tiny_env["pretrain_samples"], tiny_env["schema"], TINY,
                                   TrainConfig(epochs=2, batch_size=8, seed=0), MaskConfig(seed=0))
        assert records2 == trained["records"]
        for name, arr in trained["ckpt"].params.items():
            np.testing.assert_array_equal(arr, ckpt2.params[name])


class TestFinetuneLoop:
    def test_frozen_parameters_bitwise_stable(self, tiny_env, trained):
        tuned, _ = finetune(trained["ckpt"], tiny_env["downstream_samples"], trained["schema"],
                            TrainConfig(epochs=2, batch_size=8, seed=1, mode="finetune"))
        for name, arr in tuned.params.items():
            if name.startswith(("embed.", "time.")):
                assert arr.tobytes() == trained["ckpt"].params[name].tobytes(), name
        changed = [n for n in tuned.params if n.startswith("block0.")
                   and tuned.params[n].tobytes() != trained["ckpt"].params[n].tobytes()]
        assert changed, "encoder parameters never moved"

    def test_pretrain_heads_discarded_and_classifier_added(self, tiny_env, trained):
        tuned, _ = finetune(trained["ckpt"], tiny_env["downstream_samples"], trained["schema"],
                            TrainConfig(epochs=1, batch_size=8, seed=1, mode="finetune"))
        assert not any(n.startswith("head.") for n in tuned.params)
        assert "clf.w" in tuned.params and "clf.b" in tuned.params

    def test_scratch_mode_trains_everything(self, tiny_env, trained):
        tuned, _ = finetune(trained["ckpt"], tiny_env["downstream_samples"], trained["schema"],
                            TrainConfig(epochs=1, batch_size=8, seed=1, mode="scratch"))
        moved = [n for n in tuned.params if n.startswith("embed.")
                 and tuned.params[n].tobytes() != trained["ckpt"].params[n].tobytes()]
        assert moved, "scratch mode should not inherit checkpoint embeddings"

    def test_digest_mismatch_refused(self, tiny_env, trained):
        bad = Checkpoint(model_config=trained["ckpt"].model_config, schema_digest="deadbeef",
                         params=trained["ckpt"].params)
        with pytest.raises(ConfigError, match="digest"):
            finetune(bad, tiny_env["downstream_samples"], trained["schema"], TrainConfig(mode="finetune"))

    def test_unlabeled_samples_rejected(self, tiny_env, trained):
        with pytest.raises(ContractError):
            finetune(trained["ckpt"], tiny_env["pretrain_samples"], trained["schema"],
                     TrainConfig(mode="finetune"))

    def test_nan_before_a_relu_stops_training(self, tiny_env, trained):
        # a NaN hidden unit reaches the loss; a relu that zeroed it trained on quietly
        params = dict(trained["ckpt"].params)
        params["block0.ffn.w1"] = params["block0.ffn.w1"].copy()
        params["block0.ffn.w1"][0, 0] = np.nan
        bad = Checkpoint(model_config=trained["ckpt"].model_config,
                         schema_digest=trained["ckpt"].schema_digest, params=params)
        with pytest.raises(NumericError, match="training loss is non-finite"):
            finetune(bad, tiny_env["downstream_samples"], trained["schema"],
                     TrainConfig(epochs=1, batch_size=8, seed=1, mode="finetune"))

    def test_val_metrics_equal_evaluate(self, tiny_env, trained):
        samples = tiny_env["downstream_samples"]
        tuned, records = finetune(trained["ckpt"], samples[6:], trained["schema"],
                                  TrainConfig(epochs=2, batch_size=8, seed=1, mode="finetune"),
                                  val_samples=samples[:6])
        result = evaluate(tuned, samples[:6], trained["schema"])
        assert {k: records[-1][f"val_{k}"] for k in ("f1", "precision", "recall")} == \
            {k: result[k] for k in ("f1", "precision", "recall")}

    def test_records_carry_f1(self, tiny_env, trained):
        samples = tiny_env["downstream_samples"]
        tcfg = TrainConfig(epochs=1, batch_size=8, seed=1, mode="finetune")
        _, records = finetune(trained["ckpt"], samples[4:], trained["schema"], tcfg,
                              val_samples=samples[:4])
        assert set(records[0]) == {"epoch", "loss", "grad_norm_mean", "grad_norm_max",
                                   "clipped_frac", "val_f1", "val_precision", "val_recall",
                                   "val_auroc", "val_predicted_positive_rate"}
        assert 0.0 <= records[0]["val_f1"] <= 1.0
        _, records = finetune(trained["ckpt"], samples[4:], trained["schema"], tcfg)
        assert set(records[0]) == {"epoch", "loss", "grad_norm_mean", "grad_norm_max", "clipped_frac"}


def crafted_checkpoint(blob: bytes, case: str) -> bytes:
    """`blob` edited as `case` names, re-signed so its sha256 trailer is valid."""
    (version,) = struct.unpack_from("<I", blob, 5)
    (meta_len,) = struct.unpack_from("<I", blob, 9)
    meta = json.loads(blob[13 : 13 + meta_len])
    arrays = blob[13 + meta_len : -32]
    first_name, first_dtype, first_shape = meta["params"][0]
    if case == "array_past_body":
        meta["params"][0][2] = [d * 2 for d in first_shape]
    elif case == "unknown_dtype":
        meta["params"][0][1] = "float99"
    elif case == "negative_dim":
        meta["params"][-1][2] = [-1]
    elif case == "trailing_bytes":
        arrays += b"\x00" * 8
    elif case == "optimizer_moments":  # the optional Adam section older writers could add
        meta["optimizer"] = {"t": 1, "names": [first_name], "dtype": first_dtype}
        arrays += b"\x00" * (2 * math.prod(first_shape) * np.dtype(first_dtype).itemsize)
    elif case == "version_zero":
        version = 0
    elif case == "params_null":
        meta["params"] = None
    elif case == "missing_model_config":
        del meta["model_config"]
    elif case == "missing_step":
        del meta["step"]
    elif case == "params_entry_wrong_arity":
        meta["params"][0] = [first_name, first_dtype]
    elif case == "model_config_unknown_key":
        meta["model_config"]["bogus"] = 1
    elif case == "model_config_zero_heads":
        meta["model_config"]["n_heads"] = 0
    elif case == "param_listed_twice":  # the second entry renamed to the first's name
        meta["params"][1][0] = first_name
    raw = json.dumps(meta).encode("utf-8")
    declared = {"metadata_past_body": len(raw) + len(arrays) + 1,
                "metadata_cut_short": len(raw) - 1}.get(case, len(raw))
    body = blob[:5] + struct.pack("<II", version, declared) + raw + arrays
    return body + hashlib.sha256(body).digest()


class TestCheckpoint:
    def test_round_trip_is_bitwise_and_forward_identical(self, tiny_env, trained, tmp_path):
        schema = tiny_env["schema"]
        tuned, _ = finetune(trained["ckpt"], tiny_env["downstream_samples"], schema,
                            TrainConfig(epochs=1, batch_size=8, seed=2, mode="finetune"))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(tuned, path)
        loaded = load_checkpoint(path)
        assert loaded.schema_digest == tuned.schema_digest
        assert loaded.step == tuned.step
        assert loaded.model_config == tuned.model_config
        for name, arr in tuned.params.items():
            assert arr.tobytes() == loaded.params[name].tobytes()
        batch = stack_batch(tiny_env["downstream_samples"][:4])
        out1 = forward_classify(batch, tuned.tensors(set()), tuned.model_config, schema).data
        out2 = forward_classify(batch, loaded.tensors(set()), loaded.model_config, schema).data
        assert out1.tobytes() == out2.tobytes()

    def test_truncated_file_rejected_without_partial_state(self, trained, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(trained["ckpt"], path)
        blob = path.read_bytes()
        (tmp_path / "trunc.bin").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(IntegrityError):
            load_checkpoint(tmp_path / "trunc.bin")

    def test_corrupted_byte_rejected(self, trained, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(trained["ckpt"], path)
        blob = bytearray(path.read_bytes())
        blob[200] ^= 0xFF
        (tmp_path / "bad.bin").write_bytes(bytes(blob))
        with pytest.raises(IntegrityError):
            load_checkpoint(tmp_path / "bad.bin")

    def test_future_version_rejected(self, trained, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(trained["ckpt"], path)
        blob = bytearray(path.read_bytes())
        blob[5:9] = struct.pack("<I", 999)
        (tmp_path / "future.bin").write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersionError):
            load_checkpoint(tmp_path / "future.bin")

    @pytest.mark.parametrize("case, error", [
        ("array_past_body", IntegrityError),
        ("unknown_dtype", IntegrityError),
        ("negative_dim", IntegrityError),
        ("trailing_bytes", IntegrityError),
        ("optimizer_moments", IntegrityError),
        ("metadata_past_body", IntegrityError),
        ("metadata_cut_short", IntegrityError),
        ("version_zero", UnsupportedVersionError),
        ("params_null", IntegrityError),
        ("missing_model_config", IntegrityError),
        ("missing_step", IntegrityError),
        ("params_entry_wrong_arity", IntegrityError),
        ("model_config_unknown_key", IntegrityError),
        ("model_config_zero_heads", IntegrityError),
        ("param_listed_twice", IntegrityError),
    ])
    def test_crafted_file_with_valid_trailer_rejected(self, trained, tmp_path, case, error):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(trained["ckpt"], path)
        (tmp_path / "crafted.bin").write_bytes(crafted_checkpoint(path.read_bytes(), case))
        with pytest.raises(error):
            load_checkpoint(tmp_path / "crafted.bin")

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "junk.bin").write_bytes(b"NOTCK" + b"\x00" * 64)
        with pytest.raises(IntegrityError):
            load_checkpoint(tmp_path / "junk.bin")


@pytest.fixture(scope="module")
def ckpt_file(trained, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt_file") / "ckpt.bin"
    save_checkpoint(trained["ckpt"], path)
    return path


def refused_or_equal(path, blob, ckpt):
    """`blob` written next to `path` raises a typed error on load, or loads `ckpt`'s arrays."""
    mutated = path.with_name("mutated.bin")
    mutated.write_bytes(bytes(blob))
    try:
        loaded = load_checkpoint(mutated)
    except (IntegrityError, UnsupportedVersionError):
        return
    assert loaded.params.keys() == ckpt.params.keys()
    for name, arr in ckpt.params.items():
        assert loaded.params[name].dtype == arr.dtype, name
        assert loaded.params[name].tobytes() == arr.tobytes(), name


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_any_single_byte_change_of_a_checkpoint_is_refused_or_loads_the_same(ckpt_file, trained, data):
    blob = bytearray(ckpt_file.read_bytes())
    # the header and metadata, anywhere, and the sha256 trailer
    where = st.one_of(st.integers(0, 200), st.integers(0, len(blob) - 1),
                      st.integers(len(blob) - 32, len(blob) - 1))
    blob[data.draw(where, label="position")] = data.draw(st.integers(0, 255), label="byte")
    refused_or_equal(ckpt_file, blob, trained["ckpt"])


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_any_truncation_of_a_checkpoint_is_refused(ckpt_file, data):
    blob = ckpt_file.read_bytes()
    truncated = ckpt_file.with_name("truncated.bin")
    truncated.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1), label="length")])
    with pytest.raises(IntegrityError):
        load_checkpoint(truncated)


class TestEvaluate:
    def test_evaluate_reports_counts(self, tiny_env, trained):
        tuned, _ = finetune(trained["ckpt"], tiny_env["downstream_samples"], trained["schema"],
                            TrainConfig(epochs=1, batch_size=8, seed=0, mode="finetune"))
        result = evaluate(tuned, tiny_env["downstream_samples"], trained["schema"])
        assert result["n"] == len(tiny_env["downstream_samples"])
        assert 0.0 <= result["f1"] <= 1.0
        assert 0.0 <= result["precision"] <= 1.0 and 0.0 <= result["recall"] <= 1.0

    def test_evaluate_needs_classifier(self, tiny_env, trained):
        with pytest.raises(ConfigError, match="classifier"):
            evaluate(trained["ckpt"], tiny_env["downstream_samples"], trained["schema"])


class TestPredictProba:
    def test_forward_records_no_graph_on_trainable_params(self, tiny_env, monkeypatch):
        from tabaconv import training

        schema, samples = tiny_env["schema"], tiny_env["downstream_samples"]
        params = init_params(schema, TINY, seed=3, head="classify")
        assert all(p.requires_grad for p in params.values())
        expected = np.concatenate([
            sigmoid(forward_classify(stack_batch(samples[i : i + 8]), params, TINY, schema).data)
            for i in range(0, len(samples), 8)])
        logits = []

        def recording_forward(*args, **kwargs):
            logits.append(forward_classify(*args, **kwargs))
            return logits[-1]

        monkeypatch.setattr(training, "forward_classify", recording_forward)
        probs = predict_proba(params, TINY, schema, samples, batch_size=8)
        assert logits and all(not t.requires_grad and t._parents == () for t in logits)
        assert probs.tobytes() == expected.tobytes()

    @staticmethod
    def sequential(params, schema, samples, batch_size):
        return np.concatenate([
            sigmoid(forward_classify(stack_batch(samples[i : i + batch_size]), params, TINY, schema).data)
            for i in range(0, len(samples), batch_size)])

    @staticmethod
    def record_pools(monkeypatch):
        """The max_workers of every pool predict_proba opens."""
        from concurrent.futures import ThreadPoolExecutor

        from tabaconv import training

        workers = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(training, "ThreadPoolExecutor", Recording)
        return workers

    @staticmethod
    def set_blas_threads(monkeypatch, **values):
        """The BLAS thread variables, exactly as given."""
        from tabaconv.training import BLAS_THREAD_VARS

        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in values.items():
            monkeypatch.setenv(var, value)

    @pytest.mark.parametrize("cpus,batch_size,pool", [(1, 8, 0), (2, 8, 2), (2, 64, 0), (5, 8, 2)])
    def test_equal_for_every_cpu_count(self, tiny_env, monkeypatch, cpus, batch_size, pool):
        import threading

        schema, samples = tiny_env["schema"], tiny_env["downstream_samples"]
        assert len(samples) == 20  # three batches of 8, one of 64
        params = init_params(schema, TINY, seed=4, head="classify")
        expected = self.sequential(params, schema, samples, batch_size)
        workers = self.record_pools(monkeypatch)
        self.set_blas_threads(monkeypatch, OPENBLAS_NUM_THREADS="1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        running = threading.active_count()
        probs = predict_proba(params, TINY, schema, samples, batch_size=batch_size)
        assert probs.dtype == expected.dtype and probs.tobytes() == expected.tobytes()
        # one worker per CPU, at most two, never more than batches; one worker opens no pool
        assert workers == ([pool] if pool else [])
        assert threading.active_count() == running

    def test_more_workers_than_cores_with_frequent_switches(self, tiny_env, monkeypatch):
        import sys

        from tabaconv import training

        schema, samples = tiny_env["schema"], tiny_env["downstream_samples"]
        params = init_params(schema, TINY, seed=5, head="classify")
        expected = self.sequential(params, schema, samples, 2)
        workers = self.record_pools(monkeypatch)
        self.set_blas_threads(monkeypatch, OMP_NUM_THREADS="1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(training, "MAX_SCORING_WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                probs = predict_proba(params, TINY, schema, samples, batch_size=2)
                assert probs.tobytes() == expected.tobytes()
        finally:
            sys.setswitchinterval(interval)
        assert workers == [8] * 5

    def test_cpu_count_without_affinity(self, tiny_env, monkeypatch):
        schema, samples = tiny_env["schema"], tiny_env["downstream_samples"]
        params = init_params(schema, TINY, seed=4, head="classify")
        workers = self.record_pools(monkeypatch)
        self.set_blas_threads(monkeypatch, OPENBLAS_NUM_THREADS="1")
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for cpus, pool in ((1, []), (2, [2])):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            probs = predict_proba(params, TINY, schema, samples, batch_size=8)
            assert probs.tobytes() == self.sequential(params, schema, samples, 8).tobytes()
            assert workers == pool
            workers.clear()

    @pytest.mark.parametrize("blas,pool", [
        ({}, []),  # OpenBLAS's default: one thread per CPU
        ({"OPENBLAS_NUM_THREADS": "2"}, []),
        ({"OPENBLAS_NUM_THREADS": "1"}, [2]),
        ({"GOTO_NUM_THREADS": "1"}, [2]),
        ({"OMP_NUM_THREADS": "1"}, [2]),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, []),  # the first one set counts
        ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, [2]),
    ])
    def test_pool_only_over_a_one_thread_blas(self, tiny_env, monkeypatch, blas, pool):
        schema, samples = tiny_env["schema"], tiny_env["downstream_samples"]
        params = init_params(schema, TINY, seed=4, head="classify")
        workers = self.record_pools(monkeypatch)
        self.set_blas_threads(monkeypatch, **blas)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        probs = predict_proba(params, TINY, schema, samples, batch_size=8)
        assert probs.tobytes() == self.sequential(params, schema, samples, 8).tobytes()
        assert workers == pool

    def test_no_windows_opens_no_pool(self, tiny_env, monkeypatch):
        schema, samples = tiny_env["schema"], tiny_env["downstream_samples"]
        workers = self.record_pools(monkeypatch)
        probs = predict_proba(init_params(schema, TINY, seed=4, head="classify"), TINY, schema,
                              samples[:0])
        assert probs.shape == (0,) and workers == []

    def test_a_failing_batch_raises_in_the_caller(self, tiny_env, monkeypatch):
        from tabaconv import training

        def failing(batch, *args, **kwargs):
            raise NumericError("batch failed")

        monkeypatch.setattr(training, "forward_classify", failing)
        self.set_blas_threads(monkeypatch, OPENBLAS_NUM_THREADS="1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        schema, samples = tiny_env["schema"], tiny_env["downstream_samples"]
        with pytest.raises(NumericError, match="batch failed"):
            predict_proba(init_params(schema, TINY, seed=4, head="classify"), TINY, schema, samples,
                          batch_size=8)
