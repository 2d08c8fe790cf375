"""Tests for the synthetic transaction generator and its oracle bound."""

import csv
import hashlib
import json
import warnings

import numpy as np
import pytest

from tabaconv import synth
from tabaconv.errors import ConfigError
from tabaconv.synth import SynthConfig, bayes_f1_bound, generate, load_manifest, rule_label
from tabaconv.training import f1_binary


def read_rows(csv_path):
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


class TestGenerate:
    def test_row_count(self, tmp_path):
        cfg = SynthConfig(n_users=20, rows_per_user=100, seed=7)
        csv_path, _ = generate(cfg, tmp_path)
        _, rows = read_rows(csv_path)
        assert len(rows) == 2000

    def test_column_layout(self, tmp_path):
        csv_path, _ = generate(SynthConfig(n_users=2, rows_per_user=5, seed=0), tmp_path)
        header, _ = read_rows(csv_path)
        assert header == synth.COLUMNS
        assert len(header) == 12

    def test_bitwise_determinism(self, tmp_path):
        cfg = SynthConfig(n_users=5, rows_per_user=30, seed=3)
        p1, m1 = generate(cfg, tmp_path / "a")
        p2, m2 = generate(cfg, tmp_path / "b")
        assert hashlib.sha256(p1.read_bytes()).digest() == hashlib.sha256(p2.read_bytes()).digest()
        assert json.loads(m1.read_text()) == json.loads(m2.read_text())

    # sha256 of the CSV and manifest that the generator wrote when it drew each
    # merchant with `rng.choice(n_merchants, p=merchant_p)` (numpy 2.4 streams)
    CHOICE_DRAWN_FILES = {
        0: ("fefce2916a483bbcea2408a57671910c3551180f065597d2f570c9f18fc8123b",
            "65b9bad86d47d88cf3c3b5721cfacae8f6728470fa088273ee91fe2657d84a6a"),
        3: ("877d5f905f50d32d35b4730f799576eaa01f7c7429c3cf285912d9fdc96dd6ff",
            "d9d4456d695264cf383e2aca46fcf73c85b0c2a689658632540089a2eefdd3fd"),
        7: ("cad531f84077885fa76365991cdd098e150d8006304e7bca36fd3df364e6b36b",
            "bf9c6a2847fa97d9998b76b3ddb8336f6938c68b75e7b2b9bdddd7691d5e04ac"),
    }

    @pytest.mark.parametrize("seed", sorted(CHOICE_DRAWN_FILES))
    def test_same_files_as_the_choice_based_draw(self, tmp_path, seed):
        csv_path, manifest_path = generate(SynthConfig(n_users=30, rows_per_user=50, seed=seed),
                                           tmp_path)
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, manifest_path))
        assert digests == self.CHOICE_DRAWN_FILES[seed]

    @pytest.mark.parametrize("n", [1, 2, 12, 40])
    def test_cdf_draw_equals_generator_choice(self, n):
        """The merchant draw against `Generator.choice(n, p=p)`, draw by draw, other draws between."""
        p = 1.0 / (np.arange(n) + 2.0)
        p /= p.sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        ours, theirs = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(2000):
            assert int(cdf.searchsorted(ours.random(), side="right")) == int(theirs.choice(n, p=p))
            assert ours.integers(7) == theirs.integers(7)
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_timestamps_strictly_increase_per_user(self, tmp_path):
        csv_path, _ = generate(SynthConfig(n_users=4, rows_per_user=50, seed=1), tmp_path)
        header, rows = read_rows(csv_path)
        ts_by_user = {}
        for r in rows:
            ts_by_user.setdefault(r[0], []).append(int(r[1]))
        for user, ts in ts_by_user.items():
            assert all(b > a for a, b in zip(ts, ts[1:])), user

    def test_noiseless_labels_rederivable_from_rule(self, tmp_path):
        cfg = SynthConfig(n_users=8, rows_per_user=60, fraud_rate=0.04, label_noise=0.0, seed=2)
        csv_path, manifest_path = generate(cfg, tmp_path)
        manifest = load_manifest(manifest_path)
        assert manifest["flipped_rows"] == []
        risky = set(manifest["risky_merchants"])
        header, rows = read_rows(csv_path)
        i = {c: header.index(c) for c in header}
        for r in rows:
            expected = rule_label(float(r[i["amount"]]), r[i["merchant"]], int(r[i["ts"]]),
                                  manifest["theta"], risky)
            assert int(r[i["label"]]) == expected

    def test_manifest_recomputes_noisy_labels(self, tmp_path):
        cfg = SynthConfig(n_users=6, rows_per_user=40, fraud_rate=0.04, label_noise=0.1, seed=5)
        csv_path, manifest_path = generate(cfg, tmp_path)
        manifest = load_manifest(manifest_path)
        flipped = set(manifest["flipped_rows"])
        risky = set(manifest["risky_merchants"])
        header, rows = read_rows(csv_path)
        i = {c: header.index(c) for c in header}
        for row_idx, r in enumerate(rows):
            base = rule_label(float(r[i["amount"]]), r[i["merchant"]], int(r[i["ts"]]),
                              manifest["theta"], risky)
            expected = base ^ (row_idx in flipped)
            assert int(r[i["label"]]) == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_rule_rate_within_twenty_percent(self, tmp_path, seed):
        cfg = SynthConfig(n_users=10, rows_per_user=60, fraud_rate=0.03, label_noise=0.05, seed=seed)
        _, manifest_path = generate(cfg, tmp_path / str(seed))
        manifest = load_manifest(manifest_path)
        assert manifest["rule_rate"] == pytest.approx(0.03, rel=0.2)

    def test_unreachable_rate_names_achievable_range(self, tmp_path):
        with pytest.raises(ConfigError, match="achievable range"):
            generate(SynthConfig(n_users=4, rows_per_user=30, fraud_rate=0.9, seed=0), tmp_path)

    @pytest.mark.parametrize("mu,sigma", [(800.0, 1.0), (708.0, 0.0), (3.0, 400.0)])
    def test_amounts_beyond_the_largest_float_refused(self, tmp_path, mu, sigma):
        """An exp overflow, or a cum_spend sum of finite amounts that overflows, writes nothing."""
        cfg = SynthConfig(n_users=3, rows_per_user=20, fraud_rate=0.0, amount_mu=mu, amount_sigma=sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"\(--amount-mu\).*\(--amount-sigma\)"):
                generate(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_roles_file_written(self, tmp_path):
        generate(SynthConfig(n_users=2, rows_per_user=5, seed=0), tmp_path)
        roles = json.loads((tmp_path / "roles.json").read_text())
        assert roles["user"] == "user_id"
        assert set(roles["columns"]) == set(synth.COLUMNS)


class TestBayesBound:
    def test_noiseless_rule_scores_one(self, tmp_path):
        cfg = SynthConfig(n_users=8, rows_per_user=60, fraud_rate=0.05, label_noise=0.0, seed=0)
        csv_path, manifest_path = generate(cfg, tmp_path)
        assert bayes_f1_bound(csv_path, manifest_path) == 1.0

    def test_half_noise_collapses(self, tmp_path):
        cfg = SynthConfig(n_users=10, rows_per_user=80, fraud_rate=0.05, label_noise=0.5, seed=0)
        csv_path, manifest_path = generate(cfg, tmp_path)
        assert bayes_f1_bound(csv_path, manifest_path) < 0.25

    def test_matches_independent_confusion_matrix(self, tmp_path):
        cfg = SynthConfig(n_users=10, rows_per_user=60, fraud_rate=0.03, label_noise=0.05, seed=4)
        csv_path, manifest_path = generate(cfg, tmp_path)
        manifest = load_manifest(manifest_path)
        risky = set(manifest["risky_merchants"])
        header, rows = read_rows(csv_path)
        i = {c: header.index(c) for c in header}
        preds = [rule_label(float(r[i["amount"]]), r[i["merchant"]], int(r[i["ts"]]),
                            manifest["theta"], risky) for r in rows]
        labels = [int(r[i["label"]]) for r in rows]
        expected = f1_binary(np.asarray(preds), np.asarray(labels))
        got = bayes_f1_bound(csv_path, manifest_path)
        assert got == pytest.approx(expected, rel=1e-12)
        assert 0.0 < got < 1.0
