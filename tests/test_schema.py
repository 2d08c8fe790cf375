"""Tests for CSV ingestion, calendar decomposition and windowing."""

import calendar
import csv
import datetime as dt
import io
import json
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabaconv import schema as sc
from tabaconv.errors import ContractError, SchemaError, UnsupportedVersionError
from tabaconv.schema import (
    FeatureSchema,
    FieldSpec,
    decompose_timestamp,
    infer_schema,
    make_windows,
    parse_iso8601,
    split_users,
    time_floats,
    window_count,
)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def windows_of(schema, header, rows, *args):
    """make_windows on a list of rows, grouped by group_rows_by_user."""
    return make_windows(schema, header, sc.group_rows_by_user(header, rows, schema), *args)


def flat(rows_by_user):
    return [row for rows in rows_by_user.values() for row in rows]


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
        assert shop.encode_categorical_column(["zzz", ""]) == [2, 2]

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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_continuous_cells_reported_with_row_indices(self, tmp_path, cell):
        rows = [["u1", str(100 * (i + 1)), "a", v, "0"] for i, v in enumerate(["1", cell, "3", cell])]
        path = tmp_path / "nonfinite.csv"
        write_csv(path, BASIC_HEADER, rows)
        with pytest.raises(SchemaError, match=r"non-finite.*'amount'.*rows: 1, 3"):
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
        with pytest.raises(SchemaError):
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

    def test_samples_carry_no_instance_dict(self, tmp_path):
        path, schema = self.schema_for(tmp_path, self.make_rows(12))
        header, rows = sc.read_csv(path)
        sample = windows_of(schema, header, rows, 10, 2, "downstream")[0]
        assert not hasattr(sample, "__dict__")
        with pytest.raises(AttributeError):
            sample.extra = 1

    def test_counts_match_formula(self, tmp_path):
        path, schema = self.schema_for(tmp_path, self.make_rows(15))
        header, rows = sc.read_csv(path)
        for n, window, stride, expected in [(10, 10, 5, 1), (15, 10, 5, 2), (9, 10, 5, 0)]:
            got = windows_of(schema, header, rows[:n], window, stride, "pretrain")
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
        wins = windows_of(schema, header, rows, 10, 5, "downstream")
        assert len(wins) == 2
        # row 2 is fraudulent: inside [0,10) but not [5,15)
        assert wins[0].label == 1 and wins[1].label == 0

    def test_pretrain_mode_strips_labels(self, tmp_path):
        path, schema = self.schema_for(tmp_path, self.make_rows(12))
        header, rows = sc.read_csv(path)
        wins = windows_of(schema, header, rows, 10, 5, "pretrain")
        assert all(w.label is None for w in wins)

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_non_finite_encoded_value_rejected(self, tmp_path, cell):
        path, schema = self.schema_for(tmp_path, self.make_rows(12))
        header, rows = sc.read_csv(path)
        rows[7][3] = cell  # e.g. an evaluate CSV the schema never saw
        with pytest.raises(SchemaError, match=r"user 'u1'.*'amount' at row 7"):
            windows_of(schema, header, rows, 5, 5, "downstream")

    def test_window_shapes(self, tmp_path):
        path, schema = self.schema_for(tmp_path, self.make_rows(10))
        header, rows = sc.read_csv(path)
        w = windows_of(schema, header, rows, 10, 5, "pretrain")[0]
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
            assert decode[shop.encode_categorical_column([value])[0]] == value

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
        windows = windows_of(schema, header, raw, 200, 200, "pretrain", np.float64)
        values = np.concatenate([w.cont_values for w in windows]).ravel()
        assert values.size == 800
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
        (window,) = windows_of(schema, header, raw, 3, 3, "pretrain", np.float64)
        cat, cont = window.cat_tokens, window.cont_values
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

    @pytest.mark.parametrize("t_min,t_max", [(300000, 100000), (sc._TS_MIN - 1, 100000),
                                             (100000, sc._TS_MAX + 1)],
                             ids=["reversed", "before_year_1", "after_year_9999"])
    def test_bad_time_range_rejected(self, basic_csv, t_min, t_max):
        payload = json.loads(infer_schema(basic_csv, BASIC_ROLES).to_json())
        payload.update(t_min=t_min, t_max=t_max)
        with pytest.raises(SchemaError, match="'t_min' <= 't_max'"):
            FeatureSchema.from_json(json.dumps(payload), source="crafted.json")


@pytest.fixture(scope="module")
def schema_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("schema_file")
    rows = [["u1", "100000", "a", "10", "0"], ["u1", "200000", "b", "2.5", "1"],
            ["u2", "150000", "c", "40", "0"], ["u2", "250000", "", "", "0"]]
    write_csv(root / "log.csv", BASIC_HEADER, rows)
    infer_schema(root / "log.csv", BASIC_ROLES).save(root / "schema.json")
    return root / "schema.json"


@settings(deadline=None, max_examples=400)
@given(st.data())
def test_any_single_byte_change_of_a_schema_file_is_refused_or_round_trips(schema_file, data):
    """A typed error, or an ordered time range and a schema that `to_json` writes and
    `from_json` reads back unchanged."""
    blob = bytearray(schema_file.read_bytes())
    blob[data.draw(st.integers(0, len(blob) - 1), label="position")] = data.draw(
        st.integers(0, 255), label="byte")
    mutated = schema_file.with_name("mutated.json")
    mutated.write_bytes(bytes(blob))
    try:
        schema = FeatureSchema.load(mutated)
    except (SchemaError, UnsupportedVersionError):
        return
    assert schema.t_min <= schema.t_max
    again = FeatureSchema.from_json(schema.to_json())
    assert again == schema and again.to_json() == schema.to_json()


def test_split_users_fractions():
    users = [f"u{i}" for i in range(20)]
    train, val, test = split_users(users)
    assert len(train) == 16 and len(val) == 2 and len(test) == 2
    assert train + val + test == users


def test_iso_parse_rejects_offsets():
    with pytest.raises(SchemaError, match="not an ISO-8601"):
        parse_iso8601("2020-03-15T14:30:45+02:00")


@pytest.mark.parametrize("stamp", [
    "2020-00-15T00:00:00Z", "2020-13-15T00:00:00Z",                          # month
    "2020-01-00T00:00:00Z", "2020-01-32T00:00:00Z", "2020-04-31T00:00:00Z",  # day
    "2021-02-29T00:00:00Z", "1900-02-29T00:00:00Z",                          # day of a common year
    "2020-01-01T24:00:00Z", "2020-01-01T00:60:00Z", "2020-01-01T00:00:60Z",  # hour, minute, second
    "2020-13-45T25:61:61Z",
])
def test_iso_parse_rejects_impossible_dates_and_times(stamp):
    with pytest.raises(SchemaError, match="not an ISO-8601 UTC timestamp"):
        parse_iso8601(stamp)


@pytest.mark.parametrize("stamp", ["2020-02-29T23:59:59Z", "2000-02-29T00:00:00Z",
                                   "2021-12-31T23:59:59Z", "0001-01-01T00:00:00Z"])
def test_iso_parse_takes_the_last_valid_values(stamp):
    assert parse_iso8601(stamp) == reference_stamp(stamp)


def test_impossible_iso_date_is_a_stamp_error(tmp_path):
    rows = [["u1", "2020-03-15T14:30:45Z", "a", "1", "0"], ["u1", "2021-02-29T00:00:00Z", "a", "2", "0"]]
    path = tmp_path / "iso.csv"
    write_csv(path, BASIC_HEADER, rows)
    log = sc.read_columns(path, roles=BASIC_ROLES)
    assert log.stamp_errors == {1: "not an ISO-8601 UTC timestamp: '2021-02-29T00:00:00Z'"}


# ---------------------------------------------------------------------------
# the column-wise encoder against per-value references
# ---------------------------------------------------------------------------

EPOCH = dt.datetime(1970, 1, 1)


def epoch_seconds(when: dt.datetime) -> int:
    return (when - EPOCH) // dt.timedelta(seconds=1)


def reference_calendar(ts: int):
    """Calendar components and periodic fractions of one timestamp, from datetime."""
    when = EPOCH + dt.timedelta(seconds=ts)
    year_start = epoch_seconds(dt.datetime(when.year, 1, 1))
    year_seconds = (366 if calendar.isleap(when.year) else 365) * 86400
    comps = (when.year, when.month, when.day, when.weekday(), when.isocalendar()[1],
             when.hour, when.minute, when.second)
    frac_day = (ts % 86400) / 86400.0
    fracs = (frac_day, (when.weekday() + frac_day) / 7.0, (ts - year_start) / year_seconds)
    return comps, fracs


def reference_stamp(cell: str) -> int:
    """Epoch seconds of an epoch or a UTC ISO-8601 timestamp cell, from datetime."""
    cell = cell.strip()
    if cell.lstrip("-").isdigit():
        return int(cell)
    when = dt.datetime.fromisoformat(cell.replace("Z", "").replace("+00:00", ""))
    return epoch_seconds(when)


def reference_windows(schema, header, rows_by_user, window, stride, mode, float_dtype):
    """make_windows one row and one cell at a time, features from reference_calendar."""
    idx = {name: header.index(name) for name in header}
    cat_fields, cont_fields = schema.categorical_fields, schema.continuous_fields
    lo, hi = reference_calendar(schema.t_min)[0][0], reference_calendar(schema.t_max)[0][0]
    span = schema.t_max - schema.t_min
    out = []
    for user, rows in rows_by_user.items():
        n = len(rows)
        cat = np.zeros((n, len(cat_fields)), dtype=np.int32)
        cont = np.zeros((n, len(cont_fields)), dtype=float_dtype)
        comp = np.zeros((n, 8), dtype=np.int32)
        tfl = np.zeros((n, 4), dtype=float_dtype)
        labels = np.zeros(n, dtype=np.int32)
        for i, row in enumerate(rows):
            for c, f in enumerate(cat_fields):
                v = row[idx[f.name]]
                cat[i, c] = sc.UNK_ID if v == "" else f.vocab.get(v, sc.UNK_ID)
            for c, f in enumerate(cont_fields):
                v = row[idx[f.name]]
                cont[i, c] = 0.0 if v == "" else (float(v) - f.mean) / f.std
            ts = reference_stamp(row[idx[schema.timestamp_column]])
            comps, fracs = reference_calendar(ts)
            comp[i] = (min(max(comps[0], lo), hi) - lo, *comps[1:])
            trend = min(max((ts - schema.t_min) / span, 0.0), 1.0) if span > 0 else 0.0
            tfl[i] = (*fracs, trend)
            v = row[idx[schema.label_column]]
            labels[i] = int(v) if v != "" else 0
        for start in range(0, n - window + 1, stride):
            end = start + window
            label = int(labels[start:end].any()) if mode == "downstream" else None
            out.append((cat[start:end], cont[start:end], comp[start:end], tfl[start:end],
                        user, label))
    return out


def assert_windows_bitwise_equal(got, expected):
    assert len(got) == len(expected)
    for w, (cat, cont, comp, tfl, user, label) in zip(got, expected):
        for a, b in ((w.cat_tokens, cat), (w.cont_values, cont),
                     (w.ts_components, comp), (w.ts_floats, tfl)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert (w.user_id, w.label) == (user, label)


def make_schema(t_min, t_max, mean=20.0, std=8.0):
    return FeatureSchema(
        fields=[FieldSpec("uid", "ignore"), FieldSpec("when", "timestamp"),
                FieldSpec("shop", "categorical", vocab={"a": 2, "b": 3, "c": 4}),
                FieldSpec("amount", "continuous", mean=mean, std=std),
                FieldSpec("fraud", "label")],
        user_column="uid", timestamp_column="when", label_column="fraud",
        t_min=t_min, t_max=t_max)


SUPPORTED_TS = st.integers(sc._TS_MIN, sc._TS_MAX)
# Dec 29 - Jan 3, where ISO weeks 52/53 and 1 meet
YEAR_TURN_TS = st.builds(
    lambda year, day, second: epoch_seconds(dt.datetime(year, 1, 1) + dt.timedelta(days=day)) + second,
    st.integers(2, 9999), st.integers(-3, 2), st.integers(0, 86399))
LEAP_DAY_TS = st.builds(
    lambda year, second: epoch_seconds(dt.datetime(year, 2, 29)) + second,
    st.integers(1, 2499).map(lambda q: 4 * q).filter(calendar.isleap), st.integers(0, 86399))
# Feb 28 - Mar 1 of century years: 1900 is not a leap year, 2000 is
CENTURY_TS = st.builds(
    lambda century, day, second: epoch_seconds(dt.datetime(100 * century, 2, 28)
                                               + dt.timedelta(days=day)) + second,
    st.integers(1, 99), st.integers(0, 2), st.integers(0, 86399))
CALENDAR_TS = st.one_of(SUPPORTED_TS, YEAR_TURN_TS, LEAP_DAY_TS, CENTURY_TS)


class TestColumnwiseCalendar:
    @settings(deadline=None, max_examples=300)
    @given(st.lists(CALENDAR_TS, min_size=1, max_size=40))
    @example([sc._TS_MIN, sc._TS_MAX, -1, 0, -86401])
    @example([epoch_seconds(dt.datetime(*ymd)) for ymd in
              ((2020, 12, 31), (2021, 1, 1), (2015, 12, 29), (1900, 2, 28), (1900, 3, 1),
               (2000, 2, 29), (1, 1, 1), (9999, 12, 31))])
    def test_array_calendar_matches_datetime(self, stamps):
        comps, fracs = sc._calendar(np.asarray(stamps, dtype=np.int64))
        schema = make_schema(sc._TS_MIN, sc._TS_MAX)
        for i, ts in enumerate(stamps):
            ref_comps, ref_fracs = reference_calendar(ts)
            assert tuple(int(c[i]) for c in comps) == ref_comps, ts
            assert tuple(float(f[i]) for f in fracs) == ref_fracs, ts
            assert decompose_timestamp(ts) == ref_comps
            assert time_floats(ts, schema)[:3] == ref_fracs

    @pytest.mark.parametrize("ts", [sc._TS_MIN - 1, sc._TS_MAX + 1, 10**19, -(10**19)])
    def test_unsupported_years_rejected(self, ts):
        with pytest.raises(SchemaError, match="unsupported year"):
            decompose_timestamp(ts)


@st.composite
def user_logs(draw):
    """A multi-user log of time-ordered rows, its schema, and windowing settings."""
    n_users = draw(st.integers(1, 5))
    cell = {
        "shop": st.sampled_from(["a", "b", "c", "", "unseen"]),
        "amount": st.one_of(st.just(""), st.integers(-10**6, 10**6).map(str),
                            st.floats(-1e6, 1e6).map(repr)),
        "fraud": st.sampled_from(["0", "1", ""]),
    }
    rows_by_user = {}
    for u in range(n_users):
        stamps = sorted(draw(st.lists(CALENDAR_TS, max_size=12)))
        rows_by_user[f"u{u}"] = [[f"u{u}", str(ts), draw(cell["shop"]), draw(cell["amount"]),
                                  draw(cell["fraud"])] for ts in stamps]
    t_min, t_max = sorted(draw(st.lists(CALENDAR_TS, min_size=2, max_size=2)))
    schema = make_schema(t_min, t_max, mean=draw(st.floats(-100, 100)),
                         std=draw(st.floats(1e-3, 1e3)))
    return schema, rows_by_user


class TestColumnwiseWindows:
    @settings(deadline=None, max_examples=150)
    @given(user_logs(), st.integers(1, 8), st.integers(1, 4), st.integers(1, 4),
           st.sampled_from(["pretrain", "downstream"]), st.sampled_from([np.float32, np.float64]))
    def test_equals_per_row_reference(self, log, block, window, stride, mode, float_dtype):
        schema, rows_by_user = log
        with mock.patch.object(sc, "_ENCODE_BLOCK_ROWS", block):
            got = windows_of(schema, BASIC_HEADER, flat(rows_by_user), window, stride, mode, float_dtype)
        assert_windows_bitwise_equal(got, reference_windows(
            schema, BASIC_HEADER, rows_by_user, window, stride, mode, float_dtype))

    @settings(deadline=None, max_examples=100)
    @given(user_logs(), st.randoms(use_true_random=False))
    def test_grouped_log_windows_equal_reference(self, log, rnd):
        """Shuffled rows regrouped: users in first-appearance order, each stable-sorted by time,
        and windows made from the grouping equal the per-row reference."""
        schema, rows_by_user = log
        rows = flat(rows_by_user)
        rnd.shuffle(rows)
        expected = {}
        for row in rows:
            expected.setdefault(row[0], []).append(row)
        for user_rows in expected.values():
            user_rows.sort(key=lambda r: int(r[1]))
        grouped = sc.group_rows_by_user(BASIC_HEADER, rows, schema)
        assert grouped.users == list(expected)
        for mode in ("pretrain", "downstream"):
            with mock.patch.object(sc, "_ENCODE_BLOCK_ROWS", 3):
                got = make_windows(schema, BASIC_HEADER, grouped, 3, 2, mode)
            assert_windows_bitwise_equal(got, reference_windows(
                schema, BASIC_HEADER, expected, 3, 2, mode, np.float32))

    @pytest.mark.parametrize("mode,float_dtype", [("pretrain", np.float64), ("downstream", np.float32)])
    def test_user_straddling_a_block_boundary(self, mode, float_dtype):
        rng = np.random.default_rng(17)
        per_user = 1500  # u1 covers rows 1500-2999 and u2 rows 3000-4499
        assert sc._ENCODE_BLOCK_ROWS < 3 * per_user and sc._ENCODE_BLOCK_ROWS % per_user
        rows_by_user = {}
        for u in range(3):
            stamps = np.sort(rng.integers(-2 * 10**9, 4 * 10**9, per_user))
            rows_by_user[f"u{u}"] = [
                [f"u{u}", str(ts), str(rng.choice(["a", "b", "c", "", "zz"])),
                 "" if i % 97 == 0 else f"{rng.normal(20, 8):.6f}", str(int(rng.random() < 0.05))]
                for i, ts in enumerate(stamps)]
        schema = make_schema(0, 2 * 10**9)
        got = windows_of(schema, BASIC_HEADER, flat(rows_by_user), 10, 7, mode, float_dtype)
        assert_windows_bitwise_equal(got, reference_windows(
            schema, BASIC_HEADER, rows_by_user, 10, 7, mode, float_dtype))


class TestEncodeErrors:
    """Bad cells in a log encoded with a schema built from clean data."""

    def rows_by_user(self):
        return {u: [[u, str(1000 + 100 * i), "a", str(i), "0"] for i in range(6)]
                for u in ("u0", "u1", "u2")}

    @pytest.mark.parametrize("stamp", ["123456789012345678901", "-99999999999999999999",
                                       str(sc._TS_MAX + 1)])
    def test_unsupported_timestamp_is_value_error(self, stamp):
        rows_by_user = self.rows_by_user()
        rows_by_user["u1"][5][1] = stamp
        with pytest.raises(ValueError, match="unsupported year"):
            windows_of(make_schema(1000, 1500), BASIC_HEADER, flat(rows_by_user), 3, 3, "downstream")

    @pytest.mark.parametrize("stamp", ["123456789012345678901", str(sc._TS_MIN - 1)])
    def test_unsupported_timestamp_is_value_error_when_grouping(self, stamp):
        rows = [row for rows in self.rows_by_user().values() for row in rows]
        rows[8][1] = stamp
        with pytest.raises(ValueError, match="unsupported year"):
            sc.group_rows_by_user(BASIC_HEADER, rows, make_schema(1000, 1500))

    # a z-score beyond float32 in the cast (std 8) or beyond float64 in the division (std 1e-10)
    @pytest.mark.parametrize("std", [8.0, 1e-10])
    def test_z_score_beyond_the_float_dtype_is_refused_without_a_numpy_warning(self, std):
        rows_by_user = self.rows_by_user()
        rows_by_user["u1"][4][3] = "1e300"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SchemaError) as exc:
                windows_of(make_schema(1000, 1500, std=std), BASIC_HEADER, flat(rows_by_user), 3, 3,
                           "downstream")
        assert str(exc.value) == ("user 'u1': non-finite value in continuous column 'amount' at row 4 "
                                  "of the user's time-ordered rows")
        assert [str(w.message) for w in caught] == []

    def test_non_numeric_continuous_cell_is_value_error(self):
        rows_by_user = self.rows_by_user()
        rows_by_user["u1"][2][3] = "12abc"
        with pytest.raises(ValueError, match="12abc"):
            windows_of(make_schema(1000, 1500), BASIC_HEADER, flat(rows_by_user), 3, 3, "pretrain")

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_cell_names_user_and_row(self, cell):
        rows_by_user = self.rows_by_user()
        rows_by_user["u2"][4][3] = cell
        with mock.patch.object(sc, "_ENCODE_BLOCK_ROWS", 5):
            with pytest.raises(SchemaError, match=r"user 'u2'.*'amount' at row 4 "):
                windows_of(make_schema(1000, 1500), BASIC_HEADER, flat(rows_by_user), 3, 3, "pretrain")


# ---------------------------------------------------------------------------
# the streamed CLI ingest against per-row references
# ---------------------------------------------------------------------------


def iso_cell(ts: int, style: int) -> str:
    text = (EPOCH + dt.timedelta(seconds=ts)).strftime("%Y-%m-%dT%H:%M:%S")
    return (text + "Z", text.replace("T", " "), text + "+00:00")[style]


@st.composite
def csv_logs(draw):
    """Rows of a log in file order: users interleaved, timestamps out of order and tied,
    empty cells, and values that only later users have (unseen by a training schema)."""
    fmt = draw(st.sampled_from(["epoch", "iso8601"]))
    n_users = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 80))):
        u = draw(st.integers(0, n_users - 1))
        ts = 1_500_000_000 + draw(st.integers(-30, 30)) * 4001
        cell = str(ts) if fmt == "epoch" else iso_cell(ts, draw(st.integers(0, 2)))
        shop = draw(st.sampled_from(["a", "b", "", f"only{u}"]))
        amount = draw(st.one_of(st.just(""), st.integers(-10**4, 10**4).map(str),
                                st.floats(-1e4, 1e4).map(repr)))
        rows.append([f"u{u}", cell, shop, amount, draw(st.sampled_from(["0", "1", ""]))])
    return rows


def reference_schema(rows, include_users):
    """infer_schema one row and one cell at a time, over the training rows in file order."""
    rows = [r for r in rows if r[0] in include_users]
    vocab = {}
    for r in rows:
        if r[2] != "" and r[2] not in vocab:
            vocab[r[2]] = sc.UNK_ID + len(vocab)
    amounts = np.array([float(r[3]) for r in rows if r[3] != ""])
    amount = FieldSpec("amount", "ignore")
    if amounts.size and amounts.std() > 0:
        amount = FieldSpec("amount", "continuous", mean=float(amounts.mean()), std=float(amounts.std()))
    stamps = [reference_stamp(r[1]) for r in rows]
    return FeatureSchema(
        fields=[FieldSpec("uid", "ignore"), FieldSpec("when", "timestamp"),
                FieldSpec("shop", "categorical", vocab=vocab), amount, FieldSpec("fraud", "label")],
        user_column="uid", timestamp_column="when", label_column="fraud",
        t_min=min(stamps), t_max=max(stamps),
        timestamp_format="epoch" if rows[0][1].lstrip("-").isdigit() else "iso8601")


def reference_groups(rows, users):
    """Each of `users`' rows, users in first-appearance order, each user's sorted by time."""
    grouped = {}
    for r in rows:
        if r[0] in users:
            grouped.setdefault(r[0], []).append(r)
    return {u: sorted(rs, key=lambda r: reference_stamp(r[1])) for u, rs in grouped.items()}


def write_log(directory, rows):
    path = Path(directory) / "log.csv"
    write_csv(path, BASIC_HEADER, rows)
    return path


class TestStreamedIngest:
    @settings(deadline=None, max_examples=120)
    @given(csv_logs(), st.integers(1, 8), st.integers(1, 4), st.integers(1, 3))
    # "a" first appears in a test user's row, then in training rows only after "b"
    @example([[f"u{u}", str(1_500_000_000 + u), "", "1", "0"] for u in range(4)]
             + [["u4", "1500000004", "a", "2", "0"], ["u0", "1500000005", "b", "3", "1"],
                ["u0", "1500000006", "a", "4", "0"]], 3, 2, 1)
    # a test user's amount of 1 is beyond float32 in units of the training std (2.6e-72)
    @example([[f"u{u}", str(1_500_000_000 + 10 * u + k), "a", ["0", "5.5e-72"][k % 2], "0"]
              for u in range(6) for k in range(3)] + [["u5", "1500000099", "a", "1", "0"]], 2, 2, 1)
    def test_equals_row_path_and_reference(self, rows, block, window, stride):
        from tabaconv import cli

        users = list(dict.fromkeys(r[0] for r in rows))
        train_split = set(split_users(users)[0])
        split, train = ("train", train_split) if train_split else ("all", set(users))
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a constant training column is demoted with a warning
            path = write_log(tmp, rows)
            expected_schema = reference_schema(rows, train)
            amount = expected_schema.fields[3]
            with mock.patch.object(sc, "_ENCODE_BLOCK_ROWS", block):
                if amount.kind != "ignore" and not all(
                        np.isfinite(np.float32((float(r[3]) - amount.mean) / amount.std))
                        for r in rows if r[3] != ""):
                    # a cell whose z-score is beyond float32 is refused, here in the "all" split at the latest
                    with pytest.raises(SchemaError, match="non-finite value in continuous column 'amount'"):
                        schema, _ = cli._pretrain_windows(path, BASIC_ROLES, split, window, stride)
                        cli._read_windows(path, schema, ["all"], window, stride, "downstream")
                    return
                schema, pretrain = cli._pretrain_windows(path, BASIC_ROLES, split, window, stride)
                downstream = cli._read_windows(path, schema, ["all", "train"], window, stride,
                                               "downstream")
            assert schema.to_json() == expected_schema.to_json()
            assert_windows_bitwise_equal(pretrain, reference_windows(
                schema, BASIC_HEADER, reference_groups(rows, train), window, stride, "pretrain",
                np.float32))
            for got, kept in zip(downstream, (set(users), train_split)):
                assert_windows_bitwise_equal(got, reference_windows(
                    schema, BASIC_HEADER, reference_groups(rows, kept), window, stride,
                    "downstream", np.float32))
            header, raw = sc.read_csv(path)
            assert sc.users_in_order(header, raw, "uid") == users
            row_windows = make_windows(schema, header, sc.group_rows_by_user(header, raw, schema),
                                       window, stride, "downstream")
            assert_windows_bitwise_equal(row_windows, [
                (w.cat_tokens, w.cont_values, w.ts_components, w.ts_floats, w.user_id, w.label)
                for w in downstream[0]])

    BAD_CELLS = [(1, "not-a-time"), (1, "99999999999999999999"), (1, str(sc._TS_MAX + 1)),
                 (3, "12abc"), (3, "inf"), (3, "nan"), (4, "2"), (4, "yes")]

    @settings(deadline=None, max_examples=120)
    @given(csv_logs(), st.sampled_from(BAD_CELLS), st.integers(0, 80), st.integers(1, 8),
           st.sampled_from(["all", "train", "test"]))
    def test_one_bad_cell_raises_as_the_row_path(self, rows, bad, at, block, split):
        """The error names the same user, row and value whichever path reads the log,
        and only a split whose users include the bad row's raises one."""
        from tabaconv import cli

        clean = [[r[0], r[1], r[2], str(i), r[4]] for i, r in enumerate(rows + rows[:1])]
        column, value = bad
        dirty = [list(r) for r in clean]
        dirty[at % len(dirty)][column] = value
        user = dirty[at % len(dirty)][0]
        users = list(dict.fromkeys(r[0] for r in dirty))
        kept = dict(zip(("train", "val", "test"), map(set, split_users(users))), all=set(users))[split]
        with tempfile.TemporaryDirectory() as tmp:
            schema = infer_schema(write_log(tmp, clean), BASIC_ROLES)
            path = write_log(tmp, dirty)
            streamed = row = None
            try:
                with mock.patch.object(sc, "_ENCODE_BLOCK_ROWS", block):
                    cli._read_windows(path, schema, [split], 2, 1, "downstream")
            except SchemaError as exc:
                streamed = str(exc)
            header, raw = sc.read_csv(path)
            try:
                make_windows(schema, header, sc.group_rows_by_user(
                    header, [r for r in raw if r[0] in kept], schema), 2, 1, "downstream")
            except SchemaError as exc:
                row = str(exc)
        assert streamed == row
        if user in kept:
            assert streamed is not None
            assert value in streamed or "unsupported year" in streamed or f"user {user!r}" in streamed
        else:
            assert streamed is None

    @settings(deadline=None, max_examples=60)
    @given(csv_logs(), st.sampled_from(BAD_CELLS), st.integers(0, 80), st.integers(1, 8))
    def test_one_bad_cell_in_pretraining_raises_as_the_row_path(self, rows, bad, at, block):
        """Schema inference and pretraining windows over all users, streamed and from rows."""
        from tabaconv import cli

        dirty = [[r[0], r[1], r[2], str(i), r[4]] for i, r in enumerate(rows + rows[:1])]
        dirty[at % len(dirty)][bad[0]] = bad[1]
        with tempfile.TemporaryDirectory() as tmp:
            path = write_log(tmp, dirty)
            streamed = row = None
            try:
                with mock.patch.object(sc, "_ENCODE_BLOCK_ROWS", block):
                    cli._pretrain_windows(path, BASIC_ROLES, "all", 2, 1)
            except SchemaError as exc:
                streamed = str(exc)
            header, raw = sc.read_csv(path)
            try:
                schema = infer_schema(path, BASIC_ROLES)
                make_windows(schema, header, sc.group_rows_by_user(header, raw, schema), 2, 1)
            except SchemaError as exc:
                row = str(exc)
        assert streamed is not None and streamed == row

    def test_training_rows_in_another_timestamp_format_than_the_first_row(self, tmp_path):
        """The format is the first training row's; the file is read again to parse it."""
        from tabaconv import cli

        rows = [[f"u{u}", str(1_500_000_000 + 3600 * i) if u == 0 else
                 iso_cell(1_500_000_000 + 3600 * i, 0), "a", str(i), "0"]
                for u in range(10) for i in range(4)]
        path = write_log(tmp_path, rows)
        schema, samples = cli._pretrain_windows(path, BASIC_ROLES, "test", 2, 2)
        assert schema.timestamp_format == "iso8601"
        assert schema == infer_schema(path, BASIC_ROLES, include_users={"u9"})
        assert_windows_bitwise_equal(samples, reference_windows(
            schema, BASIC_HEADER, reference_groups(rows, {"u9"}), 2, 2, "pretrain", np.float32))
        with pytest.raises(SchemaError, match="unparseable timestamp"):
            infer_schema(path, BASIC_ROLES)


class TestOneGroupedLog:
    """Rows held in memory and a streamed log group into the same GroupedColumns."""

    @settings(deadline=None, max_examples=60)
    @given(csv_logs(), st.sampled_from([None, "train"]))
    def test_rows_group_as_the_streamed_log(self, rows, split):
        users = list(dict.fromkeys(r[0] for r in rows))
        kept = None if split is None else set(split_users(users)[0]) or None
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a constant training column is demoted with a warning
            path = write_log(tmp, rows)
            schema = infer_schema(path, BASIC_ROLES)
            header, raw = sc.read_csv(path)
            from_rows = sc.group_rows_by_user(header, raw, schema, users=kept)
            log = sc.read_columns(path, schema=schema)
            streamed = sc.group_rows_by_user(log.header, log, schema, users=kept)
        assert isinstance(from_rows, sc.GroupedColumns)
        assert from_rows.users == streamed.users
        assert from_rows.bounds == streamed.bounds
        assert from_rows.order.tolist() == streamed.order.tolist()
        for mode in ("pretrain", "downstream"):
            assert_windows_bitwise_equal(make_windows(schema, header, from_rows, 2, 1, mode), [
                (w.cat_tokens, w.cont_values, w.ts_components, w.ts_floats, w.user_id, w.label)
                for w in make_windows(schema, log.header, streamed, 2, 1, mode)])

    @pytest.mark.parametrize("rows_by_user", [{}, {"u1": [["u1", "1000", "a", "1", "0"]]}])
    def test_make_windows_refuses_a_dict_of_rows(self, rows_by_user):
        with pytest.raises(ContractError, match="GroupedColumns.*got dict"):
            make_windows(make_schema(1000, 1500), BASIC_HEADER, rows_by_user, 1, 1, "pretrain")


# ---------------------------------------------------------------------------
# columnar windows: the gather against the list of views it replaced
# ---------------------------------------------------------------------------


def stacked_views(expected):
    """A batch as the list path built it: np.stack over each window's views."""
    return [np.stack([w[i] for w in expected]) for i in range(4)]


def assert_gather_equals_stacked_views(windows, expected):
    from tabaconv.training import stack_batch

    batch = stack_batch(windows)
    got = (batch.cat, batch.cont, batch.ts_components, batch.ts_floats)
    if not expected:
        assert len(windows) == 0 and all(a.shape[0] == 0 for a in got)
        return
    for a, b in zip(got, stacked_views(expected)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    labels = [w[5] for w in expected]
    if labels[0] is None:
        assert batch.labels is None
    else:
        assert batch.labels.dtype == np.float64 and batch.labels.tolist() == labels


class TestColumnarWindows:
    @settings(deadline=None, max_examples=150)
    @given(user_logs(), st.integers(1, 8), st.integers(1, 6), st.integers(1, 9),
           st.sampled_from(["pretrain", "downstream"]), st.sampled_from([np.float32, np.float64]),
           st.randoms(use_true_random=False))
    def test_gather_equals_stacked_views(self, log, block, window, stride, mode, float_dtype, rnd):
        # users hold 0-12 rows, so some are shorter than the window; strides reach past it
        schema, rows_by_user = log
        with mock.patch.object(sc, "_ENCODE_BLOCK_ROWS", block):
            windows = windows_of(schema, BASIC_HEADER, flat(rows_by_user), window, stride, mode, float_dtype)
        expected = reference_windows(schema, BASIC_HEADER, rows_by_user, window, stride, mode, float_dtype)
        assert_gather_equals_stacked_views(windows, expected)
        pick = list(range(len(expected)))
        rnd.shuffle(pick)
        pick = pick[: len(pick) // 2 + 1]
        assert_gather_equals_stacked_views(windows[np.array(pick, dtype=np.int64)],
                                           [expected[i] for i in pick])

    @pytest.mark.parametrize("mode,float_dtype,stride", [("pretrain", np.float64, 7),
                                                         ("downstream", np.float32, 13)])
    def test_gather_on_users_straddling_a_block_boundary(self, mode, float_dtype, stride):
        rng = np.random.default_rng(23)
        per_user = 1500  # u1 covers rows 1500-2999 and u2 rows 3000-4499
        assert sc._ENCODE_BLOCK_ROWS < 3 * per_user and sc._ENCODE_BLOCK_ROWS % per_user
        rows_by_user = {}
        for u in range(3):
            stamps = np.sort(rng.integers(0, 2 * 10**9, per_user))
            rows_by_user[f"u{u}"] = [
                [f"u{u}", str(ts), str(rng.choice(["a", "b", "c", "", "zz"])),
                 "" if i % 89 == 0 else f"{rng.normal(20, 8):.6f}", str(int(rng.random() < 0.05))]
                for i, ts in enumerate(stamps)]
        schema = make_schema(0, 2 * 10**9)
        windows = windows_of(schema, BASIC_HEADER, flat(rows_by_user), 10, stride, mode, float_dtype)
        expected = reference_windows(schema, BASIC_HEADER, rows_by_user, 10, stride, mode, float_dtype)
        for lo in range(0, len(expected), 64):  # the batches predict_proba scores
            assert_gather_equals_stacked_views(windows[lo : lo + 64], expected[lo : lo + 64])

    @settings(deadline=None, max_examples=60)
    @given(user_logs(), st.integers(1, 4), st.integers(1, 5),
           st.sampled_from(["pretrain", "downstream"]))
    def test_len_index_slice_and_iteration_behave_as_the_list(self, log, window, stride, mode):
        schema, rows_by_user = log
        windows = windows_of(schema, BASIC_HEADER, flat(rows_by_user), window, stride, mode, np.float32)
        expected = reference_windows(schema, BASIC_HEADER, rows_by_user, window, stride, mode, np.float32)
        n = len(expected)
        assert len(windows) == n and bool(windows) == bool(expected)
        assert_windows_bitwise_equal(list(windows), expected)
        for key in (slice(None), slice(1, 3), slice(None, None, -1), slice(5, 2), slice(-3, None),
                    slice(0, n, 2), slice(n, n + 4)):
            part = windows[key]
            assert isinstance(part, sc.Windows)
            assert_windows_bitwise_equal(part, expected[key])
        for i in range(-n, n):
            assert_windows_bitwise_equal([windows[i]], [expected[i]])
            assert windows[i].window == window
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                windows[i]

    @settings(deadline=None, max_examples=60)
    @given(user_logs(), st.data())
    def test_user_set_split_equals_filtering_the_list(self, log, data):
        from tabaconv import cli

        schema, rows_by_user = log
        users = list(rows_by_user)
        sets = [set(), set()]
        for u in users:  # each user in one set or in neither
            side = data.draw(st.integers(0, 2))
            if side < 2:
                sets[side].add(u)
        rows = flat(rows_by_user)
        columns = sc._columns_from_rows(BASIC_HEADER, rows, sc._schema_layout(BASIC_HEADER, schema),
                                        schema.timestamp_format)
        for mode in ("pretrain", "downstream"):
            got = cli._windows_for_users(columns, schema, sets, 2, 1, mode)
            kept = {u: r for u, r in rows_by_user.items() if u in sets[0] | sets[1]}
            expected = reference_windows(schema, BASIC_HEADER, kept, 2, 1, mode, np.float32)
            for part, users_of in zip(got, sets):
                assert_windows_bitwise_equal(part, [w for w in expected if w[4] in users_of])

    def test_row_arrays_are_read_only_and_shared(self, tmp_path):
        rows = [["u1", str(1000 + 100 * i), "a", str(i), "0"] for i in range(12)]
        path = tmp_path / "w.csv"
        write_csv(path, BASIC_HEADER, rows)
        schema = infer_schema(path, BASIC_ROLES)
        windows = windows_of(schema, BASIC_HEADER, rows, 4, 2, "downstream")
        part = windows[1:3]
        assert all(getattr(part, name) is getattr(windows, name) for name in ("cat", "cont", "comp", "tfl"))
        with pytest.raises(ValueError):
            windows.cont[0, 0] = 1.0
        with pytest.raises(ValueError):
            windows[0].cat_tokens[0, 0] = 1


# ---------------------------------------------------------------------------
# the numpy tokenizer of plain blocks against csv.reader
# ---------------------------------------------------------------------------

COLUMN_FIELDS = ("header", "n_rows", "timestamp_format", "values", "errors", "stamp_errors",
                 "unsupported", "first_stamps")


def assert_columns_equal(got, expected):
    """Every field of two CsvColumns, arrays by dtype and bytes (float bits included)."""
    for name in COLUMN_FIELDS:
        assert getattr(got, name) == getattr(expected, name), name
    for name in ("codes", "floats", "empty"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.keys() == b.keys()
        for col in a:
            assert a[col].dtype == b[col].dtype and a[col].tobytes() == b[col].tobytes(), (name, col)
    assert got.stamps.dtype == expected.stamps.dtype and got.stamps.tobytes() == expected.stamps.tobytes()


def columns_or_error(read):
    try:
        return read(), None
    except SchemaError as exc:
        return None, str(exc)


def reference_columns(path, roles=None, schema=None):
    """The log from csv.reader rows: `read_csv`, then the row encoder."""
    header, rows = sc.read_csv(path)
    layout = sc._roles_layout(header, roles) if schema is None else sc._schema_layout(header, schema)
    return sc._columns_from_rows(header, rows, layout, schema.timestamp_format if schema else None)


def assert_reads_as_csv_reader(path, **how):
    """read_columns equals the csv.reader reference at block sizes 1, 3 and the default,
    or both raise a SchemaError with the same text."""
    for block in (1, 3, sc._ENCODE_BLOCK_ROWS):
        with mock.patch.object(sc, "_ENCODE_BLOCK_ROWS", block):
            got, got_error = columns_or_error(lambda: sc.read_columns(path, **how))
            expected, error = columns_or_error(lambda: reference_columns(path, **how))
        assert got_error == error
        if error is None:
            assert_columns_equal(got, expected)


def rarely(strategy, common):
    """`common` mostly; `strategy` about one time in eight."""
    return st.integers(0, 7).flatmap(lambda k: strategy if k == 0 else common)


NUMBER_CELLS = st.one_of(
    st.integers(-10**20, 10**20).map(str), st.floats(allow_nan=True).map(repr),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.2f}"),
    st.from_regex(r"-?[0-9]{0,19}(\.[0-9]{0,19})?", fullmatch=True),
    st.sampled_from(["", "-0", "-0.0", "+3", ".5", "5.", ".", "-", "1e5", "1_000", " 7 ", "\t8",
                     "١٢", " 5", "\x1c1", "nan", "-inf", "1.2.3", "--1", "0x10",
                     "9007199254740993", "123456789012345.6", "999999999999999999",
                     "-999999999999999999", "9999999999999999999", "0.1000000000000000055511151231257827"]))
TEXT_CELLS = rarely(
    st.one_of(st.sampled_from(["é", "x,y", 'q"t', "l\nb", "c\rr", "n\x00l", " ", "\x85"]),
              st.text(st.characters(codec="utf-8"), max_size=10)),
    st.sampled_from(["a", "b", "", "ü1", "a b", " a", "12345678", "123456789", "abcdefghijklmnopq"]))
STAMP_CELLS = st.one_of(
    st.integers(-10**11, 10**11).map(str), rarely(NUMBER_CELLS, st.integers(0, 2 * 10**9).map(str)),
    st.builds(iso_cell, st.integers(-10**9, 10**10), st.integers(0, 2)))
LABEL_CELLS = st.sampled_from(["0", "1", "", "2"])


@st.composite
def csv_texts(draw):
    """CSV bytes with the BASIC_HEADER columns: mostly plain lines, some quoted cells, LF,
    CRLF and bare CR line ends, blank and ragged lines, no final newline, byte changes, cuts."""
    lines = [",".join(BASIC_HEADER)]
    ragged, quoted = (draw(rarely(st.just(True), st.just(False))) for _ in range(2))
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(st.sampled_from(["u0", "u1", "u2", "ü", ""])), draw(STAMP_CELLS),
               draw(TEXT_CELLS), draw(NUMBER_CELLS), draw(LABEL_CELLS)]
        shape = draw(st.sampled_from(["blank", "short", "long", "row"]) if ragged else st.just("row"))
        if shape == "blank":
            row = []
        elif shape != "row":
            row = row[:-1] if shape == "short" else row + ["extra"]
        quoting = draw(st.sampled_from([csv.QUOTE_ALL, csv.QUOTE_MINIMAL]) if quoted
                       else st.just(csv.QUOTE_MINIMAL))
        out = io.StringIO()
        csv.writer(out, quoting=quoting, lineterminator="").writerow(row)
        lines.append(out.getvalue())
    ends = draw(rarely(st.just(st.sampled_from(["\r\n", "\n", "\r"])),
                       st.sampled_from([st.just("\r\n"), st.just("\n")])))
    text = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = bytearray(text.encode("utf-8"))
    for _ in range(draw(rarely(st.integers(1, 2), st.just(0)))):
        if data:
            data[draw(st.integers(0, len(data) - 1))] = draw(st.sampled_from(
                [0, 0xFF, 0xC3, ord('"'), ord(","), ord("\r"), ord("\n"), ord("7"), ord(" ")]))
    if draw(rarely(st.just(True), st.just(False))):
        data = data[:draw(st.integers(0, len(data)))]
    return bytes(data)


class TestPlainBlocks:
    @settings(deadline=None, max_examples=150)
    @given(csv_texts(), st.sampled_from([None, "epoch", "iso8601"]))
    def test_read_columns_equals_csv_reader(self, data, fmt):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.csv"
            path.write_bytes(data)
            if fmt is None:
                assert_reads_as_csv_reader(path, roles=BASIC_ROLES)
            else:
                assert_reads_as_csv_reader(path, schema=replace(make_schema(0, 10**9), timestamp_format=fmt))

    @settings(deadline=None, max_examples=100)
    @given(st.lists(NUMBER_CELLS.filter(lambda c: c.isascii() and c != "" and "\r" not in c
                                        and "\x00" not in c and "," not in c and '"' not in c
                                        and "\n" not in c), min_size=1, max_size=20),
           st.sampled_from(["\n", "\r\n"]))
    def test_numbers_are_float_and_int_of_each_cell(self, cells, end):
        block = sc._PlainBlock.parse(end.join(cells).encode(), 1)
        assert block is not None and block.n == len(cells)
        for parse, read in ((float, block.floats), (int, block.ints)):
            try:
                expected = [parse(c.encode()) for c in cells]
            except ValueError:
                with pytest.raises(ValueError):
                    read(0)
                continue
            got = read(0)
            if parse is float:
                assert np.array(expected).tobytes() == got.tobytes()
            else:
                assert [int(v) for v in got] == expected

    @pytest.mark.parametrize("data, width", [
        (b'a,"b\nc"\n', 2), (b"a,b\rc,d\n", 2), (b"a\x00,b\n", 2), (b"a,b,c\n", 2), (b"a,b\n\n", 2),
        (b"a\r,b\n", 2), (b"a,\xe9\n", 2), (b"a\n\nb\n", 1), (b"\r\n", 1)])
    def test_blocks_that_are_not_plain(self, data, width):
        assert sc._PlainBlock.parse(data, width) is None

    @pytest.mark.parametrize("line", [b"u2,9223372036854775808,b,2,0", b'"u2","9223372036854775808","b","2","0"'],
                             ids=["plain", "quoted"])
    def test_stamp_past_int64_is_named_as_written(self, tmp_path, line):
        """An unsupported stamp in [2**63, 2**64) next to a supported one keeps its exact integer."""
        path = tmp_path / "log.csv"
        path.write_bytes(b"uid,when,shop,amount,fraud\r\nu1,5,a,1,0\r\n" + line + b"\r\n")
        log = sc.read_columns(path, roles=BASIC_ROLES)
        assert log.unsupported == {1: "timestamp 9223372036854775808 falls in unsupported year 292277026596"}
        assert log.stamps.tolist() == [5, 0]

    def test_blank_line_of_a_one_column_file(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_bytes(b"uid\r\nu1\r\n\r\nu2\r\n")
        assert_reads_as_csv_reader(path, roles=BASIC_ROLES)
        with pytest.raises(SchemaError, match="row 1 has 0 cells, header has 1"):
            sc.read_columns(path, roles=BASIC_ROLES)

    def test_line_ends_and_quoting_do_not_change_the_columns(self, tmp_path):
        """One synthetic log written with CRLF (as gen writes it), LF, and every cell quoted."""
        from tabaconv import synth

        cfg = synth.SynthConfig(n_users=5, rows_per_user=30, fraud_rate=0.0, label_noise=0.05, seed=3)
        path, _ = synth.generate(cfg, tmp_path / "crlf")
        header, rows = sc.read_csv(path)
        (tmp_path / "lf.csv").write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
        with open(tmp_path / "quoted.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL).writerows([header, *rows])
        roles = synth.default_roles()
        logs = [sc.read_columns(p, roles=roles) for p in (path, tmp_path / "lf.csv", tmp_path / "quoted.csv")]
        for log in logs:
            assert_columns_equal(log, reference_columns(path, roles=roles))


def reference_row_error(rows_by_user, schema):
    """The first bad row's error, one user at a time: non-finite values first, then labels."""
    amount = schema.continuous_fields[0]
    for user, rows in rows_by_user.items():
        for i, row in enumerate(rows):
            with np.errstate(over="ignore"):  # the float32 cast of a huge value is inf, as encoded
                z = np.float32((float(row[3]) - amount.mean) / amount.std) if row[3] != "" else 0.0
            if not np.isfinite(z):
                return (f"user {user!r}: non-finite value in continuous column 'amount' at row {i} "
                        f"of the user's time-ordered rows")
        for i, row in enumerate(rows):
            if row[4] not in ("", "0", "1"):
                return (f"user {user!r}: label {row[4]!r} in column 'fraud' at row {i} of the "
                        f"user's time-ordered rows is not 0, 1 or empty")
    return None


@settings(deadline=None, max_examples=80)
@given(csv_logs(), st.lists(st.tuples(st.integers(0, 80), st.sampled_from(
    [(3, "inf"), (3, "nan"), (3, "-1e300"), (4, "2"), (4, "yes")])), max_size=4))
@example([["u0", "1500000000", "a", "", "2"], ["u0", "1500000001", "a", "", "0"]], [(1, (3, "inf"))])
@example([["u0", "1500000000", "a", "", "2"], ["u1", "1500000001", "a", "", "0"]], [(1, (3, "inf"))])
def test_row_checks_name_the_first_bad_user_value_first(rows, bad):
    """Several bad cells: the first user in grouped order with one, its non-finite value before its label."""
    rows = [[r[0], r[1], r[2], str(i), r[4]] for i, r in enumerate(rows)]
    for at, (column, value) in bad:
        rows[at % len(rows)][column] = value
    schema = replace(make_schema(1_400_000_000, 1_600_000_000),
                     timestamp_format="epoch" if rows[0][1].isdigit() else "iso8601")
    users = set(r[0] for r in rows)
    try:
        windows_of(schema, BASIC_HEADER, rows, 2, 1, "downstream")
        got = None
    except SchemaError as exc:
        got = str(exc)
    assert got == reference_row_error(reference_groups(rows, users), schema)
