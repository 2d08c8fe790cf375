"""Reconstruction-pretraining masks: independent field masking plus whole-row masking.

A plan is sampled per window: first each row is masked as a whole with
probability `p_row`, then every remaining cell is masked independently with
probability `p_field`. Masked categorical cells are overwritten with the
MASK token (id 1); masked continuous cells with 0.0, which in z-scored
space is exactly the training mean of the raw feature. Timestamp features
are inputs only and are never masked.

`sample_mask_plan` on `rng_for_sample(seed, epoch, index)` is the
specification of a window's masks. `field_masks` draws the same masks, bit
for bit, for many windows at once, by running numpy's SeedSequence and PCG64
arithmetic as array operations across the windows.
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
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# PCG64 states formed per array operation when drawing; fewer leaves numpy's per-call
# overhead dominant, more only grows the temporaries
_DRAW_BLOCK = 4096


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


def _mul128(a: tuple, b: tuple) -> tuple:
    """(hi, lo) uint64 pairs multiplied modulo 2**128."""
    a_hi, a_lo = a
    b_hi, b_lo = b
    a0, a1 = a_lo & _MASK32, a_lo >> 32
    b0, b1 = b_lo & _MASK32, b_lo >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + a_lo * b_hi + a_hi * b_lo
    return hi, a_lo * b_lo


def _add128(a: tuple, b: tuple) -> tuple:
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]), lo


def _split128(values: list[int]) -> tuple:
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


def _draws_below(seed: int, epoch: int, sample_indices, thresholds: np.ndarray) -> np.ndarray:
    """[W, len(thresholds)] bool: draw j of window w's stream is below thresholds[j].

    Window w's stream is `rng_for_sample(seed, epoch, sample_indices[w]).random()`:
    a SeedSequence's first four 64-bit words seed PCG64 (state and increment),
    each draw steps the 128-bit LCG and takes the XSL-RR output, and a double
    is its top 53 bits times 2**-53.
    """
    idx = np.asarray(sample_indices, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() > _MASK32):
        raise ContractError(f"sample indices must be in [0, 2**32), got {idx.min()}..{idx.max()}")
    n_win, n_draws = idx.size, len(thresholds)
    below = np.empty((n_win, n_draws), dtype=bool)
    if n_win == 0 or n_draws == 0:
        return below
    fixed = _uint32_words(int(seed)) + _uint32_words(int(epoch))
    entropy = [np.full(n_win, w, dtype=np.uint32) for w in fixed] + [idx.astype(np.uint32)]
    words = [w.astype(np.uint64) for w in _seed_sequence_state(entropy, 8)]
    init_state, init_seq = [(words[i + 1] << 32 | words[i], words[i + 3] << 32 | words[i + 2])
                            for i in (0, 4)]
    # pcg64_srandom_r: inc = 2 * initseq + 1; state = ((0 * M + inc) + initstate) * M + inc
    inc = (init_seq[0] << 1 | init_seq[1] >> 63, init_seq[1] << 1 | 1)
    mult = _split128([_PCG64_MULT])
    state = _add128(_mul128(_add128(inc, init_state), mult), inc)
    # draw j reads M**j * state + (M**(j-1) + ... + M + 1) * inc; a block of `step` draws of
    # every window is formed at once from the state before it, laid out [draw, window]
    step = max(1, min(n_draws, _DRAW_BLOCK // n_win))
    powers, sums = [], []
    power, total = 1, 0
    for _ in range(step):
        total = (total + power) & _MASK128
        power = power * _PCG64_MULT & _MASK128
        powers.append(power)
        sums.append(total)
    powers, sums = [tuple(h[:, None] for h in _split128(v)) for v in (powers, sums)]
    inc_sums = _mul128(inc, sums)
    for j0 in range(0, n_draws, step):
        hi, lo = _add128(_mul128(state, powers), inc_sums)
        x = hi ^ lo
        rot = hi >> 58
        out = x >> rot | x << (-rot & 63)
        j1 = min(j0 + step, n_draws)
        doubles = (out[: j1 - j0] >> 11).astype(np.float64) * (1.0 / (1 << 53))
        np.less(doubles, thresholds[j0:j1, None], out=below[:, j0:j1].T)
        state = hi[-1], lo[-1]
    return below


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
