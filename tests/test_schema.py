"""Tests for CSV ingestion, calendar decomposition and windowing."""

import datetime as dt
import json

import numpy as np
import pytest

from tabaconv import schema as sc
from tabaconv.errors import ContractError, SchemaError, UnsupportedVersionError
from tabaconv.schema import (
    FeatureSchema,
    decompose_timestamp,
    infer_schema,
    make_windows,
    parse_iso8601,
    split_users,
    time_floats,
    window_count,
)


def write_csv(path, header, rows):
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


BASIC_HEADER = ["uid", "when", "shop", "amount", "fraud"]
BASIC_ROLES = {
    "user": "uid",
    "columns": {"uid": "ignore", "when": "timestamp", "shop": "categorical",
                "amount": "continuous", "fraud": "label"},
}


@pytest.fixture
def basic_csv(tmp_path):
    rows = [
        ["u1", "100000", "a", "10", "0"],
        ["u1", "200000", "b", "20", "0"],
        ["u1", "300000", "a", "30", "1"],
        ["u2", "150000", "c", "40", "0"],
        ["u2", "250000", "a", "50", "0"],
    ]
    path = tmp_path / "basic.csv"
    write_csv(path, BASIC_HEADER, rows)
    return path


class TestInferSchema:
    def test_vocab_insertion_order_and_reserved_ids(self, basic_csv):
        schema = infer_schema(basic_csv, BASIC_ROLES)
        shop = schema.categorical_fields[0]
        assert shop.vocab == {"a": 2, "b": 3, "c": 4}
        assert shop.vocab_size() == 5  # PAD + MASK + 3 values

    def test_unseen_value_maps_to_first_slot(self, basic_csv):
        schema = infer_schema(basic_csv, BASIC_ROLES)
        shop = schema.categorical_fields[0]
        assert shop.encode_categorical("zzz") == 2
        assert shop.encode_categorical("") == 2

    def test_population_std(self, tmp_path):
        rows = [["u1", str(100 + i), "a", v, "0"] for i, v in enumerate(["10", "20", "30"])]
        path = tmp_path / "three.csv"
        write_csv(path, BASIC_HEADER, rows)
        schema = infer_schema(path, BASIC_ROLES)
        amount = schema.continuous_fields[0]
        assert amount.mean == pytest.approx(20.0)
        assert amount.std == pytest.approx(8.16496580927726)

    def test_constant_column_demoted_with_warning(self, tmp_path):
        rows = [["u1", str(100 + i), "a", "5", "0"] for i in range(3)]
        path = tmp_path / "const.csv"
        write_csv(path, BASIC_HEADER, rows)
        with pytest.warns(UserWarning, match="zero variance"):
            schema = infer_schema(path, BASIC_ROLES)
        assert schema.continuous_fields == []
        assert [f.kind for f in schema.fields if f.name == "amount"] == ["ignore"]

    def test_missing_column_rejected(self, basic_csv):
        roles = {"user": "uid", "columns": {**BASIC_ROLES["columns"], "ghost": "categorical"}}
        with pytest.raises(SchemaError, match="ghost"):
            infer_schema(basic_csv, roles)

    def test_unassigned_column_rejected(self, basic_csv):
        roles = {"user": "uid", "columns": {k: v for k, v in BASIC_ROLES["columns"].items() if k != "shop"}}
        with pytest.raises(SchemaError, match="shop"):
            infer_schema(basic_csv, roles)

    def test_unparseable_timestamps_reported_with_row_indices(self, tmp_path):
        rows = [
            ["u1", "100", "a", "1", "0"],
            ["u1", "not-a-time", "a", "2", "0"],
            ["u1", "300", "a", "3", "0"],
            ["u1", "also-bad", "a", "4", "0"],
        ]
        path = tmp_path / "bad.csv"
        write_csv(path, BASIC_HEADER, rows)
        with pytest.raises(SchemaError, match=r"rows: 1, 3"):
            infer_schema(path, BASIC_ROLES)

    def test_training_split_restriction(self, basic_csv):
        schema = infer_schema(basic_csv, BASIC_ROLES, include_users={"u1"})
        shop = schema.categorical_fields[0]
        assert shop.vocab == {"a": 2, "b": 3}  # u2's "c" never seen
        assert schema.t_min == 100000 and schema.t_max == 300000

    def test_iso8601_autodetection(self, tmp_path):
        rows = [
            ["u1", "2020-03-15T14:30:45Z", "a", "1", "0"],
            ["u1", "2020-03-16 00:00:00", "b", "2", "0"],
        ]
        path = tmp_path / "iso.csv"
        write_csv(path, BASIC_HEADER, rows)
        schema = infer_schema(path, BASIC_ROLES)
        assert schema.timestamp_format == "iso8601"
        assert schema.t_min == 1584282645

    def test_rfc4180_quoting(self, tmp_path):
        rows = [
            ["u1", "100", 'comma, inside', "1", "0"],
            ["u1", "200", 'quote "q"', "2", "0"],
        ]
        path = tmp_path / "quoted.csv"
        write_csv(path, BASIC_HEADER, rows)
        schema = infer_schema(path, BASIC_ROLES)
        assert set(schema.categorical_fields[0].vocab) == {"comma, inside", 'quote "q"'}


class TestDecomposeTimestamp:
    def test_epoch_origin(self):
        assert decompose_timestamp(0) == (1970, 1, 1, 3, 1, 0, 0, 0)

    def test_known_modern_date(self):
        # 2020-03-15T14:30:45Z, a Sunday in ISO week 11
        assert decompose_timestamp(1584282645) == (2020, 3, 15, 6, 11, 14, 30, 45)

    def test_week53(self):
        # 2020 is a long ISO year; Jan 1 2021 still belongs to week 53 of 2020
        assert decompose_timestamp(parse_iso8601("2020-12-31T12:00:00Z"))[4] == 53
        assert decompose_timestamp(parse_iso8601("2021-01-01T00:00:00Z"))[4] == 53

    def test_determinism(self):
        assert decompose_timestamp(1584282645) == decompose_timestamp(1584282645)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            decompose_timestamp(-63000000000)  # before year 1

    def test_against_stdlib_oracle(self):
        rng = np.random.default_rng(1234)
        saw_week53 = False
        for ts in rng.integers(0, 2**31, size=1000):
            ts = int(ts)
            got = decompose_timestamp(ts)
            ref = dt.datetime.fromtimestamp(ts, tz=dt.timezone.utc)
            expected = (ref.year, ref.month, ref.day, ref.weekday(),
                        ref.isocalendar()[1], ref.hour, ref.minute, ref.second)
            assert got == expected, f"ts={ts}: {got} != {expected}"
            saw_week53 |= got[4] == 53
        assert saw_week53, "sample never hit an ISO week 53; widen the range"

    def test_component_ranges(self):
        rng = np.random.default_rng(77)
        for ts in rng.integers(0, 2**31, size=300):
            y, mo, d, wd, wk, h, mi, s = decompose_timestamp(int(ts))
            assert 1 <= mo <= 12 and 1 <= d <= 31 and 0 <= wd <= 6
            assert 1 <= wk <= 53 and 0 <= h <= 23 and 0 <= mi <= 59 and 0 <= s <= 59


class TestTimeFloats:
    def make_schema(self, t_min, t_max):
        return FeatureSchema(fields=[], user_column="u", timestamp_column="t",
                             label_column=None, t_min=t_min, t_max=t_max)

    def test_monday_new_year_midnight(self):
        ts = parse_iso8601("2024-01-01T00:00:00Z")  # a Monday
        fd, fw, fy, trend = time_floats(ts, self.make_schema(ts, ts + 1000))
        assert (fd, fw, fy) == (0.0, 0.0, 0.0)

    def test_noon_is_half_day(self):
        ts = parse_iso8601("2024-01-03T12:00:00Z")
        fd = time_floats(ts, self.make_schema(0, 2**31))[0]
        assert fd == pytest.approx(0.5)

    def test_trend_boundaries_and_clamping(self):
        schema = self.make_schema(1000, 2000)
        assert time_floats(2000, schema)[3] == 1.0
        assert time_floats(1000, schema)[3] == 0.0
        assert time_floats(5000, schema)[3] == 1.0  # clamped beyond the training range
        assert time_floats(0, schema)[3] == 0.0

    def test_ranges(self):
        schema = self.make_schema(0, 2**31)
        rng = np.random.default_rng(5)
        for ts in rng.integers(0, 2**31, size=200):
            fd, fw, fy, trend = time_floats(int(ts), schema)
            assert 0 <= fd < 1 and 0 <= fw < 1 and 0 <= fy < 1 and 0 <= trend <= 1


class TestWindows:
    def make_rows(self, n, user="u1"):
        return [[user, str(1000 + 100 * i), "a", str(i), "1" if i == 2 else "0"] for i in range(n)]

    def schema_for(self, tmp_path, rows):
        path = tmp_path / "w.csv"
        write_csv(path, BASIC_HEADER, rows)
        return path, infer_schema(path, BASIC_ROLES)

    def test_counts_match_formula(self, tmp_path):
        path, schema = self.schema_for(tmp_path, self.make_rows(15))
        header, rows = sc.read_csv(path)
        for n, window, stride, expected in [(10, 10, 5, 1), (15, 10, 5, 2), (9, 10, 5, 0)]:
            got = make_windows(schema, header, {"u1": rows[:n]}, window, stride, "pretrain")
            assert len(got) == expected == window_count(n, window, stride)

    def test_formula_matches_enumeration_exhaustively(self):
        for n in range(0, 51):
            for window in range(1, 13):
                for stride in range(1, 13):
                    count = 0
                    offset = 0
                    while offset + window <= n:
                        count += 1
                        offset += stride
                    assert window_count(n, window, stride) == count, (n, window, stride)

    def test_offsets_and_labels(self, tmp_path):
        path, schema = self.schema_for(tmp_path, self.make_rows(15))
        header, rows = sc.read_csv(path)
        wins = make_windows(schema, header, {"u1": rows}, 10, 5, "downstream")
        assert len(wins) == 2
        # row 2 is fraudulent: inside [0,10) but not [5,15)
        assert wins[0].label == 1 and wins[1].label == 0

    def test_pretrain_mode_strips_labels(self, tmp_path):
        path, schema = self.schema_for(tmp_path, self.make_rows(12))
        header, rows = sc.read_csv(path)
        wins = make_windows(schema, header, {"u1": rows}, 10, 5, "pretrain")
        assert all(w.label is None for w in wins)

    def test_unsorted_rows_rejected(self, tmp_path):
        rows = self.make_rows(12)
        rows[3], rows[4] = rows[4], rows[3]
        path = tmp_path / "w.csv"
        write_csv(path, BASIC_HEADER, rows)
        schema = infer_schema(path, BASIC_ROLES)
        header, raw = sc.read_csv(path)
        with pytest.raises(ContractError, match="sorted"):
            make_windows(schema, header, {"u1": raw}, 5, 5, "pretrain")

    def test_window_shapes(self, tmp_path):
        path, schema = self.schema_for(tmp_path, self.make_rows(10))
        header, rows = sc.read_csv(path)
        w = make_windows(schema, header, {"u1": rows}, 10, 5, "pretrain")[0]
        assert w.cat_tokens.shape == (10, 1)
        assert w.cont_values.shape == (10, 1)
        assert w.ts_components.shape == (10, 8)
        assert w.ts_floats.shape == (10, 4)
        assert w.window == 10
        # single-year data: the year component is the offset from the minimum year
        assert (w.ts_components[:, 0] == 0).all()


class TestEncoding:
    def test_round_trip_categorical(self, basic_csv):
        schema = infer_schema(basic_csv, BASIC_ROLES)
        shop = schema.categorical_fields[0]
        decode = {v: k for k, v in shop.vocab.items()}
        for value in shop.vocab:
            assert decode[shop.encode_categorical(value)] == value

    def test_zscore_statistics_on_training_split(self, tmp_path):
        rng = np.random.default_rng(9)
        rows = []
        for u in range(4):
            ts = 1000
            for i in range(200):
                ts += int(rng.integers(1, 500))
                rows.append([f"u{u}", str(ts), rng.choice(["a", "b"]), f"{rng.normal(50, 9):.4f}", "0"])
        path = tmp_path / "z.csv"
        write_csv(path, BASIC_HEADER, rows)
        schema = infer_schema(path, BASIC_ROLES)
        header, raw = sc.read_csv(path)
        grouped = sc.group_rows_by_user(header, raw, schema)
        encoded = [sc.encode_user_rows(schema, header, r, np.float64)[1] for r in grouped.values()]
        values = np.concatenate(encoded).ravel()
        assert abs(values.mean()) < 1e-6
        assert abs(values.std() - 1.0) < 1e-6

    def test_year_offset_clamps(self, basic_csv):
        schema = infer_schema(basic_csv, BASIC_ROLES)
        lo, hi = schema.year_range
        assert schema.year_offset(lo - 10) == 0
        assert schema.year_offset(hi + 10) == hi - lo

    def test_missing_values_imputed(self, tmp_path):
        rows = [
            ["u1", "100", "a", "10", "0"],
            ["u1", "200", "", "", "0"],
            ["u1", "300", "b", "30", "0"],
        ]
        path = tmp_path / "m.csv"
        write_csv(path, BASIC_HEADER, rows)
        schema = infer_schema(path, BASIC_ROLES)
        header, raw = sc.read_csv(path)
        cat, cont, *_ = sc.encode_user_rows(schema, header, raw, np.float64)
        assert cat[1, 0] == sc.UNK_ID
        assert cont[1, 0] == 0.0  # the training mean in z-space


class TestPersistence:
    def test_schema_json_round_trip(self, basic_csv, tmp_path):
        schema = infer_schema(basic_csv, BASIC_ROLES)
        path = tmp_path / "schema.json"
        schema.save(path)
        loaded = FeatureSchema.load(path)
        assert loaded == schema
        assert loaded.digest() == schema.digest()

    def test_schema_future_version_rejected(self, basic_csv):
        schema = infer_schema(basic_csv, BASIC_ROLES)
        payload = json.loads(schema.to_json())
        payload["version"] = 999
        with pytest.raises(UnsupportedVersionError):
            FeatureSchema.from_json(json.dumps(payload))


def test_split_users_fractions():
    users = [f"u{i}" for i in range(20)]
    train, val, test = split_users(users)
    assert len(train) == 16 and len(val) == 2 and len(test) == 2
    assert train + val + test == users


def test_iso_parse_rejects_offsets():
    with pytest.raises(ValueError):
        parse_iso8601("2020-03-15T14:30:45+02:00")
