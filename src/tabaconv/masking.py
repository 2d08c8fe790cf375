"""Reconstruction-pretraining masks: independent field masking plus whole-row masking.

A plan is sampled per window: first each row is masked as a whole with
probability `p_row`, then every remaining cell is masked independently with
probability `p_field`. Masked categorical cells are overwritten with the
MASK token (id 1); masked continuous cells with 0.0, which in z-scored
space is exactly the training mean of the raw feature. Timestamp features
are inputs only and are never masked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .schema import MASK_ID, FeatureSchema, WindowSample


@dataclass
class MaskConfig:
    p_field: float = 0.30
    p_row: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_field <= 1.0:
            raise ConfigError(f"p_field must be in [0,1], got {self.p_field}")
        if not 0.0 <= self.p_row <= 1.0:
            raise ConfigError(f"p_row must be in [0,1], got {self.p_row}")


@dataclass
class MaskPlan:
    """Boolean cell/row masks for one sample.

    `field_mask` covers the categorical columns first, then the continuous
    columns, matching WindowSample's cat/cont matrices side by side.
    """

    field_mask: np.ndarray  # [T, C] bool
    row_mask: np.ndarray    # [T] bool
    n_cat: int

    @property
    def cat_mask(self) -> np.ndarray:
        return self.field_mask[:, : self.n_cat]

    @property
    def cont_mask(self) -> np.ndarray:
        return self.field_mask[:, self.n_cat :]


def sample_mask_plan(t_len: int, schema: FeatureSchema, cfg: MaskConfig,
                     rng: np.random.Generator) -> MaskPlan:
    """Draw row mask first, then field masks for cells outside masked rows."""
    if t_len < 1:
        raise ContractError(f"window length must be >= 1, got {t_len}")
    n_cols = schema.n_mask_columns
    row_mask = rng.random(t_len) < cfg.p_row
    field_mask = rng.random((t_len, n_cols)) < cfg.p_field
    field_mask[row_mask, :] = True
    return MaskPlan(field_mask=field_mask, row_mask=row_mask, n_cat=len(schema.categorical_fields))


def rng_for_sample(seed: int, epoch: int, sample_index: int) -> np.random.Generator:
    """Per-(epoch, sample) RNG stream so masking parallelizes deterministically."""
    return np.random.default_rng(np.random.SeedSequence([seed, epoch, sample_index]))


def apply_mask(sample: WindowSample, plan: MaskPlan, schema: FeatureSchema) -> WindowSample:
    """Overwrite masked cells with MASK_ID / 0.0.

    Returns a new WindowSample; the input sample, its timestamp arrays and
    the plan are left untouched.
    """
    t_len, n_cat = sample.cat_tokens.shape
    n_cont = sample.cont_values.shape[1]
    if plan.field_mask.shape != (t_len, n_cat + n_cont) or plan.n_cat != n_cat:
        raise ContractError(
            f"mask plan shape {plan.field_mask.shape} (n_cat={plan.n_cat}) does not match "
            f"sample [{t_len}, {n_cat}+{n_cont}]"
        )
    cat = sample.cat_tokens.copy()
    cont = sample.cont_values.copy()
    cat[plan.cat_mask] = MASK_ID
    cont[plan.cont_mask] = 0.0
    return WindowSample(
        cat_tokens=cat,
        cont_values=cont,
        ts_components=sample.ts_components,
        ts_floats=sample.ts_floats,
        user_id=sample.user_id,
        label=sample.label,
    )
