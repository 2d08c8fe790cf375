"""Reconstruction-pretraining masks: independent field masking plus whole-row masking.

A plan is sampled per window: first each row is masked as a whole with
probability `p_row`, then every remaining cell is masked independently with
probability `p_field`. Masked categorical cells are overwritten with the
MASK token (id 1); masked continuous cells with 0.0, which in z-scored
space is exactly the training mean of the raw feature. Timestamp features
are inputs only and are never masked.

`sample_mask_plan` on `rng_for_sample(seed, epoch, index)` is the
specification of a window's masks. `field_masks` draws the same masks, bit
for bit, for many windows at once: numpy's SeedSequence hash runs as array
operations across the windows, and its output seeds one numpy PCG64 per
window in turn, as `rng_for_sample` would.
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
        if self.seed < 0:
            raise ConfigError(f"mask seed (--mask-seed) must be non-negative, got {self.seed}")
        if not 0.0 <= self.p_field <= 1.0:
            raise ConfigError(f"p_field (--p-field) must be in [0,1], got {self.p_field}")
        if not 0.0 <= self.p_row <= 1.0:
            raise ConfigError(f"p_row (--p-row) must be in [0,1], got {self.p_row}")


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


def field_masks(t_len: int, schema: FeatureSchema, cfg: MaskConfig, epoch: int,
                sample_indices) -> np.ndarray:
    """[len(sample_indices), t_len, n_mask_columns] bool: every window's field mask at once.

    Entry w is `sample_mask_plan(t_len, schema, cfg, rng_for_sample(cfg.seed,
    epoch, sample_indices[w])).field_mask`, bit for bit: the stream's first
    t_len doubles are the row draws, the next t_len * n_mask_columns the
    field draws in row-major order, and a masked row masks all its fields.
    """
    if t_len < 1:
        raise ContractError(f"window length must be >= 1, got {t_len}")
    n_cols = schema.n_mask_columns
    thresholds = np.repeat([cfg.p_row, cfg.p_field], [t_len, t_len * n_cols])
    below = _draws_below(cfg.seed, epoch, sample_indices, thresholds)
    fields = below[:, t_len:].reshape(len(below), t_len, n_cols)
    fields |= below[:, :t_len, None]
    return fields


# numpy's SeedSequence (numpy/random/bit_generator.pyx): pool size and hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's split of a non-negative int into 32-bit words, least significant first."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's `hashmix` with its running constant, over uint32 arrays."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ result >> 16


def _seed_sequence_state(entropy: list[np.ndarray], n_words: int) -> list[np.ndarray]:
    """`SeedSequence(entropy).generate_state(n_words)` word by word, one array entry per window.

    `entropy[i]` holds word i of every window's assembled entropy.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    zeros = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    return [hashmix(pool[i % _POOL_SIZE]) for i in range(n_words)]


def _draws_below(seed: int, epoch: int, sample_indices, thresholds: np.ndarray) -> np.ndarray:
    """[W, len(thresholds)] bool: draw j of window w's stream is below thresholds[j].

    Window w's stream is `rng_for_sample(seed, epoch, sample_indices[w]).random()`.
    The SeedSequence hash runs across all windows at once; each window's first
    four 64-bit words then seed numpy's own PCG64, which draws its doubles.
    """
    idx = np.asarray(sample_indices, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() > _MASK32):
        raise ContractError(f"sample indices must be in [0, 2**32), got {idx.min()}..{idx.max()}")
    n_win, n_draws = idx.size, len(thresholds)
    if n_win == 0 or n_draws == 0:
        return np.empty((n_win, n_draws), dtype=bool)
    fixed = _uint32_words(int(seed)) + _uint32_words(int(epoch))
    entropy = [np.full(n_win, w, dtype=np.uint32) for w in fixed] + [idx.astype(np.uint32)]
    words = [w.astype(np.uint64) for w in _seed_sequence_state(entropy, 8)]
    # generate_state(4, np.uint64): 64-bit word i is 32-bit word 2i + 1 above word 2i
    seeds = [(words[2 * i + 1] << 32 | words[2 * i]).tolist() for i in range(4)]
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    doubles = np.empty((n_win, n_draws))
    for w, (state_hi, state_lo, seq_hi, seq_lo) in enumerate(zip(*seeds)):
        # pcg64_srandom_r: inc = 2 * initseq + 1; state = ((0 * M + inc) + initstate) * M + inc
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        generator.random(out=doubles[w])
    return doubles < thresholds


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
