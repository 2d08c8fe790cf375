"""Tests for CSV ingestion, calendar decomposition and windowing."""

import calendar
import datetime as dt
import json
import tempfile
import warnings
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

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_non_finite_encoded_value_rejected(self, tmp_path, cell):
        path, schema = self.schema_for(tmp_path, self.make_rows(12))
        header, rows = sc.read_csv(path)
        rows[7][3] = cell  # e.g. an evaluate CSV the schema never saw
        with pytest.raises(SchemaError, match=r"user 'u1'.*'amount' at row 7"):
            make_windows(schema, header, {"u1": rows}, 5, 5, "downstream")

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
        with pytest.raises(ValueError, match="unsupported year"):
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
            got = make_windows(schema, BASIC_HEADER, rows_by_user, window, stride, mode, float_dtype)
        assert_windows_bitwise_equal(got, reference_windows(
            schema, BASIC_HEADER, rows_by_user, window, stride, mode, float_dtype))

    @settings(deadline=None, max_examples=100)
    @given(user_logs(), st.randoms(use_true_random=False))
    def test_grouped_log_windows_equal_reference(self, log, rnd):
        """Shuffled rows regrouped: users in first-appearance order, each stable-sorted by time,
        and windows made from the grouping's parsed timestamps equal the per-row reference."""
        schema, rows_by_user = log
        flat = [r for rows in rows_by_user.values() for r in rows]
        rnd.shuffle(flat)
        expected = {}
        for row in flat:
            expected.setdefault(row[0], []).append(row)
        for rows in expected.values():
            rows.sort(key=lambda r: int(r[1]))
        grouped = sc.group_rows_by_user(BASIC_HEADER, flat, schema)
        assert list(grouped.items()) == list(expected.items())
        assert grouped.stamps.tolist() == [int(r[1]) for rows in expected.values() for r in rows]
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
        got = make_windows(schema, BASIC_HEADER, rows_by_user, 10, 7, mode, float_dtype)
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
            make_windows(make_schema(1000, 1500), BASIC_HEADER, rows_by_user, 3, 3, "downstream")

    @pytest.mark.parametrize("stamp", ["123456789012345678901", str(sc._TS_MIN - 1)])
    def test_unsupported_timestamp_is_value_error_when_grouping(self, stamp):
        rows = [row for rows in self.rows_by_user().values() for row in rows]
        rows[8][1] = stamp
        with pytest.raises(ValueError, match="unsupported year"):
            sc.group_rows_by_user(BASIC_HEADER, rows, make_schema(1000, 1500))

    def test_grouped_rows_changed_without_their_timestamps_refused(self):
        rows = [row for rows in self.rows_by_user().values() for row in rows]
        grouped = sc.group_rows_by_user(BASIC_HEADER, rows, make_schema(1000, 1500))
        grouped["u1"] = grouped["u1"][:4]
        with pytest.raises(ContractError, match="changed without their timestamps"):
            make_windows(make_schema(1000, 1500), BASIC_HEADER, grouped, 3, 3, "pretrain")

    def test_unsorted_rows_report_the_in_user_offset(self):
        rows_by_user = self.rows_by_user()
        rows_by_user["u2"][3][1], rows_by_user["u2"][4][1] = "1400", "1300"
        with mock.patch.object(sc, "_ENCODE_BLOCK_ROWS", 4):
            with pytest.raises(ContractError, match="sorted by timestamp at offset 4$"):
                make_windows(make_schema(1000, 1500), BASIC_HEADER, rows_by_user, 3, 3, "pretrain")

    def test_non_numeric_continuous_cell_is_value_error(self):
        rows_by_user = self.rows_by_user()
        rows_by_user["u1"][2][3] = "12abc"
        with pytest.raises(ValueError, match="12abc"):
            make_windows(make_schema(1000, 1500), BASIC_HEADER, rows_by_user, 3, 3, "pretrain")

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_cell_names_user_and_row(self, cell):
        rows_by_user = self.rows_by_user()
        rows_by_user["u2"][4][3] = cell
        with mock.patch.object(sc, "_ENCODE_BLOCK_ROWS", 5):
            with pytest.raises(SchemaError, match=r"user 'u2'.*'amount' at row 4 "):
                make_windows(make_schema(1000, 1500), BASIC_HEADER, rows_by_user, 3, 3, "pretrain")


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
    def test_equals_row_path_and_reference(self, rows, block, window, stride):
        from tabaconv import cli

        users = list(dict.fromkeys(r[0] for r in rows))
        train_split = set(split_users(users)[0])
        split, train = ("train", train_split) if train_split else ("all", set(users))
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a constant training column is demoted with a warning
            path = write_log(tmp, rows)
            expected_schema = reference_schema(rows, train)
            with mock.patch.object(sc, "_ENCODE_BLOCK_ROWS", block):
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
            assert infer_schema(path, BASIC_ROLES, include_users=train, parsed=(header, raw)) == schema
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
                schema = infer_schema(path, BASIC_ROLES, parsed=(header, raw))
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
