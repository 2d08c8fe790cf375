"""Tests for field+row mask sampling and application."""

import numpy as np
import pytest

from tabaconv.errors import ConfigError, ContractError
from tabaconv.masking import MaskConfig, apply_mask, field_masks, rng_for_sample, sample_mask_plan
from tabaconv.schema import MASK_ID, FeatureSchema, FieldSpec, WindowSample, Windows
from tabaconv.training import masked_batch


def toy_schema(n_cat=4, n_cont=6):
    fields = [FieldSpec(name=f"cat{i}", kind="categorical", vocab={"a": 2, "b": 3})
              for i in range(n_cat)]
    fields += [FieldSpec(name=f"cont{i}", kind="continuous", mean=0.0, std=1.0)
               for i in range(n_cont)]
    return FeatureSchema(fields=fields, user_column="u", timestamp_column="t",
                         label_column=None, t_min=0, t_max=10**9)


def toy_sample(t_len=10, n_cat=4, n_cont=6, seed=0):
    rng = np.random.default_rng(seed)
    return WindowSample(
        cat_tokens=rng.integers(2, 4, size=(t_len, n_cat)).astype(np.int32),
        cont_values=rng.normal(size=(t_len, n_cont)).astype(np.float32),
        ts_components=rng.integers(0, 5, size=(t_len, 8)).astype(np.int32),
        ts_floats=rng.random((t_len, 4)).astype(np.float32),
        user_id="u0",
    )


def toy_windows(samples):
    """The samples as one Windows: their rows end to end, one window each."""
    t_len = samples[0].window
    rows = [np.concatenate([getattr(s, name) for s in samples])
            for name in ("cat_tokens", "cont_values", "ts_components", "ts_floats")]
    return Windows(*rows, starts=np.arange(len(samples)) * t_len, window=t_len, labels=None,
                   user_codes=np.zeros(len(samples), dtype=np.int64), user_names=["u0"])


class TestSampling:
    def test_zero_probabilities_give_empty_plan_and_identity(self):
        schema = toy_schema()
        sample = toy_sample()
        plan = sample_mask_plan(10, schema, MaskConfig(p_field=0.0, p_row=0.0), np.random.default_rng(0))
        assert not plan.field_mask.any() and not plan.row_mask.any()
        masked = apply_mask(sample, plan, schema)
        np.testing.assert_array_equal(masked.cat_tokens, sample.cat_tokens)
        np.testing.assert_array_equal(masked.cont_values, sample.cont_values)

    def test_row_probability_one_masks_everything(self):
        schema = toy_schema()
        plan = sample_mask_plan(10, schema, MaskConfig(p_field=0.0, p_row=1.0), np.random.default_rng(0))
        assert plan.field_mask.all() and plan.row_mask.all()

    def test_row_implies_field_over_many_plans(self):
        schema = toy_schema()
        cfg = MaskConfig(p_field=0.3, p_row=0.15, seed=0)
        for i in range(1000):
            plan = sample_mask_plan(10, schema, cfg, np.random.default_rng(i))
            assert plan.field_mask[plan.row_mask, :].all()

    def test_overall_masked_fraction_matches_closed_form(self):
        # 1 - (1-p_row)(1-p_field) = 0.405 for the quoted rates
        schema = toy_schema(n_cat=5, n_cont=5)
        cfg = MaskConfig(p_field=0.30, p_row=0.15)
        rng = np.random.default_rng(42)
        total = masked = 0
        for _ in range(10_000):
            plan = sample_mask_plan(10, schema, cfg, rng)
            masked += int(plan.field_mask.sum())
            total += plan.field_mask.size
        assert masked / total == pytest.approx(0.405, abs=0.01)

    def test_field_and_row_rates_converge(self):
        schema = toy_schema(n_cat=5, n_cont=5)
        cfg = MaskConfig(p_field=0.30, p_row=0.15)
        rng = np.random.default_rng(7)
        rows = rows_masked = 0
        cells_outside = cells_outside_masked = 0
        while rows < 20_000 or cells_outside < 100_000:
            plan = sample_mask_plan(10, schema, cfg, rng)
            rows += plan.row_mask.size
            rows_masked += int(plan.row_mask.sum())
            outside = ~plan.row_mask
            cells_outside += int(outside.sum()) * plan.field_mask.shape[1]
            cells_outside_masked += int(plan.field_mask[outside].sum())
        assert rows_masked / rows == pytest.approx(0.15, abs=0.01)
        assert cells_outside_masked / cells_outside == pytest.approx(0.30, abs=0.01)

    def test_determinism_per_seed(self):
        schema = toy_schema()
        cfg = MaskConfig(seed=5)
        p1 = sample_mask_plan(10, schema, cfg, rng_for_sample(cfg.seed, 3, 17))
        p2 = sample_mask_plan(10, schema, cfg, rng_for_sample(cfg.seed, 3, 17))
        np.testing.assert_array_equal(p1.field_mask, p2.field_mask)
        np.testing.assert_array_equal(p1.row_mask, p2.row_mask)
        p3 = sample_mask_plan(10, schema, cfg, rng_for_sample(cfg.seed, 3, 18))
        assert not np.array_equal(p1.field_mask, p3.field_mask)

    def test_bad_window_length_rejected(self):
        with pytest.raises(ContractError):
            sample_mask_plan(0, toy_schema(), MaskConfig(), np.random.default_rng(0))

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="--mask-seed"):
            MaskConfig(seed=-1)

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ConfigError):
            MaskConfig(p_field=1.5)
        with pytest.raises(ConfigError):
            MaskConfig(p_row=-0.1)


class TestApply:
    def test_masked_categorical_cell_becomes_mask_token(self):
        schema = toy_schema(n_cat=1, n_cont=0)
        sample = toy_sample(t_len=3, n_cat=1, n_cont=0)
        sample.cat_tokens[:] = [[7], [2], [3]]
        plan = sample_mask_plan(3, schema, MaskConfig(p_field=0.0, p_row=0.0), np.random.default_rng(0))
        plan.field_mask[0, 0] = True
        masked = apply_mask(sample, plan, schema)
        assert masked.cat_tokens[0, 0] == 1
        assert sample.cat_tokens[0, 0] == 7  # input untouched

    def test_masked_continuous_cell_becomes_zero(self):
        # raw 37.5 with mean 20 / std 5 is stored as 3.5; masking writes the
        # z-space mean, i.e. exactly 0.0 (raw-equivalent 20)
        schema = toy_schema(n_cat=0, n_cont=1)
        sample = toy_sample(t_len=2, n_cat=0, n_cont=1)
        sample.cont_values[:] = [[3.5], [1.0]]
        plan = sample_mask_plan(2, schema, MaskConfig(p_field=0.0, p_row=0.0), np.random.default_rng(0))
        plan.field_mask[0, 0] = True
        masked = apply_mask(sample, plan, schema)
        assert masked.cont_values[0, 0] == 0.0
        assert sample.cont_values[0, 0] == np.float32(3.5)  # input untouched

    def test_timestamp_tensors_never_touched(self):
        schema = toy_schema()
        sample = toy_sample()
        before_comp = sample.ts_components.copy()
        before_floats = sample.ts_floats.copy()
        plan = sample_mask_plan(10, schema, MaskConfig(p_field=0.9, p_row=0.5), np.random.default_rng(1))
        masked = apply_mask(sample, plan, schema)
        np.testing.assert_array_equal(masked.ts_components, before_comp)
        np.testing.assert_array_equal(masked.ts_floats, before_floats)

    def test_targets_exist_exactly_at_masked_cells(self):
        # masked_batch keeps every original cell as a target; the inputs
        # differ from them exactly where the masks are set
        schema = toy_schema()
        samples = [toy_sample(seed=s) for s in range(3)]
        batch = masked_batch(toy_windows(samples), schema, MaskConfig(seed=3), epoch=0,
                             sample_indices=[0, 1, 2])
        cat = np.stack([s.cat_tokens for s in samples])
        cont = np.stack([s.cont_values for s in samples])
        assert batch.cat_mask.any() and not batch.cat_mask.all()
        assert batch.cont_mask.any() and not batch.cont_mask.all()
        np.testing.assert_array_equal(batch.cat_targets, cat)
        np.testing.assert_array_equal(batch.cont_targets, cont)
        np.testing.assert_array_equal(batch.cat, np.where(batch.cat_mask, MASK_ID, cat))
        np.testing.assert_array_equal(batch.cont, np.where(batch.cont_mask, np.float32(0.0), cont))

    @pytest.mark.parametrize("p_field,p_row", [(0.0, 0.5), (0.3, 0.15), (0.0, 0.0), (1.0, 1.0)])
    def test_masked_batch_equals_per_sample_reference(self, p_field, p_row):
        schema = toy_schema()
        samples = [toy_sample(seed=s) for s in range(6)]
        indices = [5, 0, 17, 3, 3, 40]
        cfg = MaskConfig(p_field=p_field, p_row=p_row, seed=7)
        batch = masked_batch(toy_windows(samples), schema, cfg, epoch=2, sample_indices=indices)
        plans = [sample_mask_plan(s.window, schema, cfg, rng_for_sample(cfg.seed, 2, i))
                 for s, i in zip(samples, indices)]
        masked = [apply_mask(s, plan, schema) for s, plan in zip(samples, plans)]
        expected = {
            "cat": np.stack([m.cat_tokens for m in masked]),
            "cont": np.stack([m.cont_values for m in masked]),
            "ts_components": np.stack([s.ts_components for s in samples]),
            "ts_floats": np.stack([s.ts_floats for s in samples]),
            "cat_mask": np.stack([plan.cat_mask for plan in plans]),
            "cont_mask": np.stack([plan.cont_mask for plan in plans]),
            "cat_targets": np.stack([s.cat_tokens for s in samples]),
            "cont_targets": np.stack([s.cont_values for s in samples]),
        }
        for name, ref in expected.items():
            got = getattr(batch, name)
            assert got.dtype == ref.dtype and got.shape == ref.shape, name
            assert got.tobytes() == ref.tobytes(), name
        assert batch.labels is None
        rows = np.concatenate([batch.cat_mask, batch.cont_mask], axis=-1).reshape(-1, schema.n_mask_columns)
        if p_field == 0.0 and p_row == 0.5:  # whole rows masked next to untouched rows
            assert rows.all(axis=1).any() and (~rows).all(axis=1).any()

    @pytest.mark.parametrize("p_field,p_row", [(0.3, 0.15), (0.0, 0.0), (1.0, 1.0), (0.0, 1.0),
                                               (1.0, 0.0)])
    @pytest.mark.parametrize("indices,t_len", [
        (np.random.default_rng(0).permutation(300), 10),  # permuted
        ([5, 5, 0, 5, 2**32 - 1, 0], 3),                  # repeated, and the largest index
        ([], 10),                                         # empty
    ], ids=["permuted", "repeated", "empty"])
    @pytest.mark.parametrize("epoch", [0, 3])
    @pytest.mark.parametrize("seed", [0, 7, 2**33 + 5, 2**70 + 3])
    def test_field_masks_equal_per_window_reference(self, seed, epoch, indices, t_len, p_field,
                                                    p_row):
        # 2**33 + 5 takes two 32-bit words of entropy and 2**70 + 3 three, so with the epoch
        # and the index the latter overflows the SeedSequence pool of four words
        schema = toy_schema(n_cat=5, n_cont=4)
        cfg = MaskConfig(p_field=p_field, p_row=p_row, seed=seed)
        got = field_masks(t_len, schema, cfg, epoch, indices)
        ref = np.array([sample_mask_plan(t_len, schema, cfg, rng_for_sample(seed, epoch, int(i))).field_mask
                        for i in indices], dtype=bool).reshape(len(indices), t_len, 9)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("epoch", [0, 1, 2])
    def test_field_masks_of_an_epoch_chunk_equal_the_row_path(self, epoch):
        # 256 windows (one pretraining mask chunk) of a shuffled 6240-window epoch, T = 10, C = 9
        schema = toy_schema(n_cat=5, n_cont=4)
        cfg = MaskConfig(seed=7)
        indices = np.random.default_rng(epoch).permutation(6240)[:256]
        got = field_masks(10, schema, cfg, epoch, indices)
        ref = np.stack([sample_mask_plan(10, schema, cfg, rng_for_sample(7, epoch, int(i))).field_mask
                        for i in indices])
        assert got.shape == ref.shape == (256, 10, 9)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("indices", [[0, -1], [2**32]])
    def test_field_masks_reject_indices_outside_32_bits(self, indices):
        with pytest.raises(ContractError, match="sample indices"):
            field_masks(10, toy_schema(), MaskConfig(), 0, indices)

    def test_field_masks_reject_empty_window(self):
        with pytest.raises(ContractError):
            field_masks(0, toy_schema(), MaskConfig(), 0, [0])

    def test_masked_batch_rejects_indices_of_another_length(self):
        with pytest.raises(ContractError, match="field masks"):
            masked_batch(toy_windows([toy_sample(), toy_sample()]), toy_schema(), MaskConfig(), 0, [0])

    def test_shape_mismatch_rejected(self):
        schema = toy_schema()
        plan = sample_mask_plan(8, schema, MaskConfig(), np.random.default_rng(0))
        with pytest.raises(ContractError):
            apply_mask(toy_sample(t_len=10), plan, schema)
