"""Deterministic synthetic transaction-stream generator with a known fraud rule.

Twelve mixed-type columns per row mimic a card-transaction log: five
categorical fields with deliberate cross-field and per-user correlations
(so masked-cell reconstruction has signal), four continuous fields, a user
id, an epoch timestamp, and a binary label.

The label rule is a conjunction spanning all three feature families:

    fraud iff amount > theta AND merchant in risky_set AND hour in {0..5}

XOR an independent flip with probability `label_noise`. `fraud_rate` is the
target rate of the rule itself (pre-noise); theta is chosen from the
empirical amount distribution so the rule hits that target exactly, and
everything needed to recompute every label (theta, risky set, flipped row
indices) is written to a manifest.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .metrics import f1_binary

FRAUD_HOURS = frozenset(range(0, 6))

COLUMNS = [
    "user_id", "ts", "merchant", "category", "city", "channel", "card_type",
    "amount", "duration_s", "gap_hours", "cum_spend", "label",
]

CHANNELS = ("web", "pos", "app")
CARD_TYPES = ("debit", "credit")


@dataclass
class SynthConfig:
    n_users: int = 20
    rows_per_user: int = 100
    fraud_rate: float = 0.03
    label_noise: float = 0.05
    seed: int = 0
    n_merchants: int = 12
    n_categories: int = 8
    n_cities: int = 10
    amount_mu: float = 3.0
    amount_sigma: float = 1.0
    start_ts: int = 1_577_836_800  # 2020-01-01T00:00:00Z

    def __post_init__(self):
        if not 0.0 <= self.fraud_rate <= 1.0:
            raise ConfigError(f"fraud_rate (--fraud-rate) must be in [0,1], got {self.fraud_rate}")
        if not 0.0 <= self.label_noise <= 1.0:
            raise ConfigError(f"label_noise (--noise) must be in [0,1], got {self.label_noise}")
        if self.n_users < 1:
            raise ConfigError(f"n_users (--users) must be >= 1, got {self.n_users}")
        if self.rows_per_user < 1:
            raise ConfigError(f"rows_per_user (--rows) must be >= 1, got {self.rows_per_user}")
        if self.seed < 0:
            raise ConfigError(f"seed (--seed) must be non-negative, got {self.seed}")
        for name, flag in (("n_merchants", "--merchants"), ("n_categories", "--categories"),
                           ("n_cities", "--cities")):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} ({flag}) must be at least 1, got {getattr(self, name)}")
        if not math.isfinite(self.amount_mu):
            raise ConfigError(f"amount_mu (--amount-mu) must be finite, got {self.amount_mu}")
        if not (math.isfinite(self.amount_sigma) and self.amount_sigma >= 0):
            raise ConfigError(f"amount_sigma (--amount-sigma) must be finite and non-negative, "
                              f"got {self.amount_sigma}")

    def to_dict(self) -> dict:
        return asdict(self)


def default_roles() -> dict:
    return {
        "user": "user_id",
        "columns": {
            "user_id": "ignore",
            "ts": "timestamp",
            "merchant": "categorical",
            "category": "categorical",
            "city": "categorical",
            "channel": "categorical",
            "card_type": "categorical",
            "amount": "continuous",
            "duration_s": "continuous",
            "gap_hours": "continuous",
            "cum_spend": "continuous",
            "label": "label",
        },
    }


def rule_label(amount: float, merchant: str, ts: int, theta: float, risky: set[str]) -> int:
    hour = (ts % 86400) // 3600
    return int(amount > theta and merchant in risky and hour in FRAUD_HOURS)


def generate(cfg: SynthConfig, out_dir) -> tuple[Path, Path]:
    """Write transactions.csv, roles.json and manifest.json; returns (csv, manifest)."""
    out = Path(out_dir)
    rng = np.random.default_rng(cfg.seed)

    merchants = [f"m{i:02d}" for i in range(cfg.n_merchants)]
    merchant_p = 1.0 / (np.arange(cfg.n_merchants) + 2.0)
    merchant_p /= merchant_p.sum()
    # Generator.choice(n, p=merchant_p) draws exactly this way, but re-validates p on every call
    merchant_cdf = merchant_p.cumsum()
    merchant_cdf /= merchant_cdf[-1]
    risky = set(merchants[cfg.n_merchants // 2 :])  # rarer merchants under the skew

    rows = []
    with np.errstate(over="ignore"):  # an amount beyond the largest float is inf, refused below
        for u in range(cfg.n_users):
            user = f"u{u:04d}"
            home_city = int(rng.integers(cfg.n_cities))
            card = CARD_TYPES[int(rng.integers(2))]
            ts = cfg.start_ts + int(rng.uniform(0, 30 * 86400))
            cum_spend = 0.0
            for _ in range(cfg.rows_per_user):
                gap = 1 + int(rng.exponential(6 * 3600.0))
                ts += gap
                m_idx = int(merchant_cdf.searchsorted(rng.random(), side="right"))
                merchant = merchants[m_idx]
                if rng.random() < 0.8:
                    c_idx = m_idx % cfg.n_categories
                else:
                    c_idx = int(rng.integers(cfg.n_categories))
                city = home_city if rng.random() < 0.9 else int(rng.integers(cfg.n_cities))
                if rng.random() < 0.7:
                    channel = CHANNELS[m_idx % 3]
                else:
                    channel = CHANNELS[int(rng.integers(3))]
                card_type = card if rng.random() < 0.95 else CARD_TYPES[1 - CARD_TYPES.index(card)]
                cat_shift = 0.4 * (c_idx / max(cfg.n_categories - 1, 1) - 0.5)
                amount = round(float(np.exp(rng.normal(cfg.amount_mu + cat_shift, cfg.amount_sigma))), 2)
                duration = int(np.exp(rng.normal(4.0 + (0.5 if channel == "web" else 0.0), 0.5)))
                cum_spend = round(cum_spend + amount, 2)
                rows.append([user, ts, merchant, f"c{c_idx:02d}", f"city{city:02d}", channel,
                             card_type, amount, duration, round(gap / 3600.0, 4), cum_spend])
            if not math.isfinite(cum_spend):
                raise ConfigError(
                    f"amount_mu (--amount-mu) {cfg.amount_mu} with amount_sigma (--amount-sigma) "
                    f"{cfg.amount_sigma} draws amounts or sums of them beyond the largest float")

    n = len(rows)
    eligible = [i for i, r in enumerate(rows)
                if r[2] in risky and (r[1] % 86400) // 3600 in FRAUD_HOURS]
    wanted = round(cfg.fraud_rate * n)
    if wanted > len(eligible):
        raise ConfigError(
            f"fraud_rate {cfg.fraud_rate} unreachable: risky-merchant night rows cover only "
            f"{len(eligible) / n:.4f} of the data (achievable range [0, {len(eligible) / n:.4f}])"
        )
    amounts = sorted((rows[i][7] for i in eligible), reverse=True)
    if wanted == 0:
        theta = (amounts[0] if amounts else 0.0) + 1.0
    elif wanted == len(eligible):
        theta = amounts[-1] - 1.0
    else:
        theta = (amounts[wanted - 1] + amounts[wanted]) / 2.0

    flips = rng.random(n) < cfg.label_noise
    labels = []
    flipped_rows = []
    rule_hits = 0
    for i, r in enumerate(rows):
        base = rule_label(r[7], r[2], r[1], theta, risky)
        rule_hits += base
        label = base ^ int(flips[i])
        if flips[i]:
            flipped_rows.append(i)
        labels.append(label)

    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "transactions.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for r, label in zip(rows, labels):
            writer.writerow(r + [label])

    manifest = {
        "config": cfg.to_dict(),
        "theta": theta,
        "risky_merchants": sorted(risky),
        "fraud_hours": sorted(FRAUD_HOURS),
        "n_rows": n,
        "rule_rate": rule_hits / n,
        "label_rate": float(np.mean(labels)),
        "flipped_rows": flipped_rows,
    }
    manifest_path = out / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    with open(out / "roles.json", "w", encoding="utf-8") as fh:
        json.dump(default_roles(), fh, indent=2)
    return csv_path, manifest_path


def load_manifest(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def bayes_f1_bound(csv_path, manifest: dict | str | Path) -> float:
    """Row-level F1 of the generating rule itself against the noisy labels.

    This is what a perfect model of the rule would score; acceptance
    thresholds are scaled from it.
    """
    if not isinstance(manifest, dict):
        manifest = load_manifest(manifest)
    theta = manifest["theta"]
    risky = set(manifest["risky_merchants"])
    preds, labels = [], []
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        idx = {name: header.index(name) for name in header}
        for row in reader:
            preds.append(rule_label(float(row[idx["amount"]]), row[idx["merchant"]],
                                    int(row[idx["ts"]]), theta, risky))
            labels.append(int(row[idx["label"]]))
    return f1_binary(np.asarray(preds), np.asarray(labels))
