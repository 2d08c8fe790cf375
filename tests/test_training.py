"""Tests for losses, the optimizer, training loops and checkpoints."""

import hashlib
import json
import math
import struct

import numpy as np
import pytest

from tabaconv.errors import (
    ConfigError,
    ContractError,
    IntegrityError,
    NumericError,
    UnsupportedVersionError,
)
from tabaconv.masking import MaskConfig
from tabaconv.model import Batch, ModelConfig, forward_classify, init_params
from tabaconv.tensor import Tensor
from tabaconv.training import (
    AdamState,
    Checkpoint,
    TrainConfig,
    adam_step,
    bce_loss,
    evaluate,
    f1_binary,
    finetune,
    load_checkpoint,
    masked_batch,
    mdm_loss,
    precision_recall_f1,
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


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        params = {"w": Tensor(np.ones(4), requires_grad=True)}
        params["w"].grad = np.zeros(4, dtype=params["w"].dtype)
        state = AdamState.for_params(params, ["w"])
        adam_step(params, state, TrainConfig())
        np.testing.assert_array_equal(params["w"].data, np.ones(4, dtype=np.float32))

    def test_first_step_is_signed_learning_rate(self):
        g = np.asarray([0.5, -2.0, 10.0, -0.01], dtype=np.float32)
        params = {"w": Tensor(np.zeros(4), requires_grad=True)}
        params["w"].grad = g.copy()
        state = AdamState.for_params(params, ["w"])
        cfg = TrainConfig(learning_rate=1e-3)
        adam_step(params, state, cfg)
        np.testing.assert_allclose(params["w"].data, -1e-3 * np.sign(g), rtol=1e-3)

    def test_identical_tensors_update_identically(self):
        g = np.asarray([1.0, -1.0], dtype=np.float32)
        params = {"a": Tensor(np.ones(2), requires_grad=True),
                  "b": Tensor(np.ones(2), requires_grad=True)}
        params["a"].grad = g.copy()
        params["b"].grad = g.copy()
        state = AdamState.for_params(params, ["a", "b"])
        adam_step(params, state, TrainConfig())
        np.testing.assert_array_equal(params["a"].data, params["b"].data)

    def test_non_finite_gradient_names_parameter(self):
        params = {"oddball": Tensor(np.ones(2), requires_grad=True)}
        params["oddball"].grad = np.asarray([np.nan, 1.0], dtype=np.float32)
        state = AdamState.for_params(params, ["oddball"])
        with pytest.raises(NumericError, match="oddball"):
            adam_step(params, state, TrainConfig())


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
        ckpt, records = pretrain([], tiny_env["schema"], TINY,
                                 TrainConfig(epochs=1, seed=0), MaskConfig(seed=0))
        assert ckpt.step == 0
        assert len(records) == 1

    def test_first_epoch_loss_finite_positive(self, trained):
        assert math.isfinite(trained["records"][0]["loss"])
        assert trained["records"][0]["loss"] > 0

    def test_records_shape(self, trained):
        assert [r["epoch"] for r in trained["records"]] == [0, 1]
        for r in trained["records"]:
            assert set(r) == {"epoch", "loss", "masked_cat_acc", "masked_cont_mse"}

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
            state = AdamState.for_params(params, list(params))
            adam_step(params, state, TrainConfig(learning_rate=1e-3), list(params))
            after = loss_value()
            assert float(after.data) < float(before.data), f"seed {seed}"

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

    def test_records_carry_f1(self, tiny_env, trained):
        _, records = finetune(trained["ckpt"], tiny_env["downstream_samples"], trained["schema"],
                              TrainConfig(epochs=1, batch_size=8, seed=1, mode="finetune"))
        assert set(records[0]) == {"epoch", "loss", "f1"}
        assert 0.0 <= records[0]["f1"] <= 1.0


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
