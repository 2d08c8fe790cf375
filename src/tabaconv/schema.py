"""CSV ingestion: typed field schemas, timestamp decomposition, windowing.

A CSV of per-user, time-ordered event rows is turned into fixed-length
window samples of categorical token ids, z-scored continuous values and
calendar/time features. Vocabularies and normalization statistics are
always built on the training split only.

Token id conventions: 0 = PAD, 1 = MASK, real values start at 2; values
unseen during schema building map to id 2 at encode time.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, SchemaError, UnsupportedVersionError

PAD_ID = 0
MASK_ID = 1
UNK_ID = 2

SCHEMA_VERSION = 1

# calendar components per timestamp and their embedding-table sizes
# (year table is data dependent; see FeatureSchema.component_sizes)
TS_COMPONENT_NAMES = ("year", "month", "day", "weekday", "week", "hour", "minute", "second")
_FIXED_COMPONENT_SIZES = {"month": 13, "day": 32, "weekday": 7, "week": 54,
                          "hour": 24, "minute": 60, "second": 60}

KINDS = ("categorical", "continuous", "timestamp", "label", "ignore")


# ---------------------------------------------------------------------------
# calendar arithmetic (proleptic Gregorian, UTC)
#
# The helpers use only +, -, *, //, % and comparisons (a comparison used as
# 0/1), so one implementation runs on a Python int and, element-wise, on an
# int64 array: numpy floors integer division and modulo exactly as Python
# does. Windowing applies them to whole timestamp columns; decompose_timestamp
# and time_floats apply them to one value.
# ---------------------------------------------------------------------------


def _civil_from_days(days):
    z = days + 719468
    era = z // 146097
    doe = z - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153  # month counted from March
    day = doy - (153 * mp + 2) // 5 + 1
    jan_feb = mp >= 10
    return yoe + era * 400 + jan_feb, mp + 3 - 12 * jan_feb, day


def _days_from_civil(year, month, day):
    jan_feb = month <= 2
    year = year - jan_feb
    era = year // 400
    yoe = year - era * 400
    doy = (153 * (month - 3 + 12 * jan_feb) + 2) // 5 + day - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return era * 146097 + doe - 719468


def _iso_weeks_in_year(year):
    def jan1_anchor(y):
        return (y + y // 4 - y // 100 + y // 400) % 7

    return 52 + ((jan1_anchor(year) == 4) | (jan1_anchor(year - 1) == 3))


# epoch seconds of the supported range, years 1 to 9999; inside it every
# intermediate of _calendar fits in int64
_TS_MIN = _days_from_civil(1, 1, 1) * 86400
_TS_MAX = _days_from_civil(10000, 1, 1) * 86400 - 1


def _require_supported(ts: int) -> None:
    if not _TS_MIN <= ts <= _TS_MAX:
        year = _civil_from_days(ts // 86400)[0]
        raise ValueError(f"timestamp {ts} falls in unsupported year {year}")


def _calendar(ts):
    """Calendar components and periodic fractions of epoch seconds (UTC).

    Returns ((year, month, day, weekday, iso_week, hour, minute, second),
    (frac_of_day, frac_of_week, frac_of_year)). Integer quotients stay below
    2**53, so numpy's float64 true division rounds like Python's.
    """
    days, rem = divmod(ts, 86400)
    year, month, day = _civil_from_days(days)
    weekday = (days + 3) % 7
    jan1 = _days_from_civil(year, 1, 1)
    week = (days - jan1 - weekday + 10) // 7  # (day_of_year - (weekday + 1) + 10) // 7
    in_prev, in_next = week < 1, week > _iso_weeks_in_year(year)
    week = week + in_prev * (_iso_weeks_in_year(year - 1) - week) + in_next * (1 - week)
    hour, rem_h = divmod(rem, 3600)
    minute, second = divmod(rem_h, 60)
    frac_day = rem / 86400.0
    frac_week = (weekday + frac_day) / 7.0
    frac_year = (ts - jan1 * 86400) / ((_days_from_civil(year + 1, 1, 1) - jan1) * 86400)
    return (year, month, day, weekday, week, hour, minute, second), (frac_day, frac_week, frac_year)


def _trend(ts, t_min: int, t_max: int):
    """Min-max position of `ts` in the training range, clamped to [0, 1]."""
    span = t_max - t_min
    return np.clip((ts - t_min) / span, 0.0, 1.0) if span > 0 else 0.0


def decompose_timestamp(ts: int) -> tuple[int, int, int, int, int, int, int, int]:
    """Break epoch seconds (UTC) into calendar components.

    Returns (year, month, day, weekday, iso_week, hour, minute, second)
    with weekday Monday=0 and ISO-8601 week in [1, 53].
    """
    ts = int(ts)
    _require_supported(ts)
    return tuple(int(v) for v in _calendar(ts)[0])


_ISO_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})[T ](\d{2}):(\d{2}):(\d{2})(?:Z|\+00:00)?$"
)
_EPOCH_RE = re.compile(r"^-?\d+$")


def parse_iso8601(value: str) -> int:
    """UTC ISO-8601 (seconds precision) to epoch seconds."""
    m = _ISO_RE.match(value.strip())
    if m is None:
        raise ValueError(f"not an ISO-8601 UTC timestamp: {value!r}")
    year, month, day, hour, minute, second = (int(g) for g in m.groups())
    return _days_from_civil(year, month, day) * 86400 + hour * 3600 + minute * 60 + second


def detect_timestamp_format(value: str) -> str:
    if _EPOCH_RE.match(value.strip()):
        return "epoch"
    if _ISO_RE.match(value.strip()):
        return "iso8601"
    raise ValueError(f"unrecognized timestamp format: {value!r}")


def parse_timestamp(value: str, fmt: str) -> int:
    if fmt == "epoch":
        return int(value.strip())
    return parse_iso8601(value)


# ---------------------------------------------------------------------------
# schema types
# ---------------------------------------------------------------------------


@dataclass
class FieldSpec:
    """One column: its role plus encode state (vocab or mean/std)."""

    name: str
    kind: str
    vocab: dict[str, int] | None = None
    mean: float | None = None
    std: float | None = None

    def vocab_size(self) -> int:
        if self.vocab is None:
            raise ContractError(f"field {self.name} has no vocabulary (kind={self.kind})")
        return len(self.vocab) + 2  # PAD + MASK

    def encode_categorical_column(self, values) -> list[int]:
        """Token ids of raw cells; empty and unseen values map to UNK_ID."""
        get = self.vocab.get
        return [get(v, UNK_ID) if v != "" else UNK_ID for v in values]

    def encode_categorical(self, value: str) -> int:
        return self.encode_categorical_column((value,))[0]

    def encode_continuous_column(self, values) -> np.ndarray:
        """Float64 z-scores of raw cells; an empty cell is the training mean, 0.0."""
        z = (np.array([float(v) if v != "" else 0.0 for v in values]) - self.mean) / self.std
        if "" in values:
            z[[i for i, v in enumerate(values) if v == ""]] = 0.0
        return z


@dataclass
class FeatureSchema:
    fields: list[FieldSpec]
    user_column: str
    timestamp_column: str
    label_column: str | None
    t_min: int
    t_max: int
    timestamp_format: str = "epoch"
    version: int = SCHEMA_VERSION

    @property
    def categorical_fields(self) -> list[FieldSpec]:
        return [f for f in self.fields if f.kind == "categorical"]

    @property
    def continuous_fields(self) -> list[FieldSpec]:
        return [f for f in self.fields if f.kind == "continuous"]

    @property
    def n_mask_columns(self) -> int:
        """Width of the maskable cell grid: categorical then continuous."""
        return len(self.categorical_fields) + len(self.continuous_fields)

    @property
    def year_range(self) -> tuple[int, int]:
        return decompose_timestamp(self.t_min)[0], decompose_timestamp(self.t_max)[0]

    def year_offset(self, year):
        """Row of the year table: `year` (an int or int array) clamped to the training years."""
        lo, hi = self.year_range
        return np.clip(year, lo, hi) - lo

    def component_sizes(self) -> dict[str, int]:
        lo, hi = self.year_range
        sizes = {"year": hi - lo + 1}
        sizes.update(_FIXED_COMPONENT_SIZES)
        return sizes

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "user_column": self.user_column,
            "timestamp_column": self.timestamp_column,
            "label_column": self.label_column,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "timestamp_format": self.timestamp_format,
            "fields": [
                {
                    "name": f.name,
                    "kind": f.kind,
                    "vocab": list(f.vocab.items()) if f.vocab is not None else None,
                    "mean": f.mean,
                    "std": f.std,
                }
                for f in self.fields
            ],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FeatureSchema":
        payload = json.loads(text)
        if payload.get("version", 0) > SCHEMA_VERSION:
            raise UnsupportedVersionError(
                f"schema version {payload['version']} is newer than supported {SCHEMA_VERSION}"
            )
        fields = [
            FieldSpec(
                name=f["name"],
                kind=f["kind"],
                vocab=dict((k, int(v)) for k, v in f["vocab"]) if f["vocab"] is not None else None,
                mean=f["mean"],
                std=f["std"],
            )
            for f in payload["fields"]
        ]
        return cls(
            fields=fields,
            user_column=payload["user_column"],
            timestamp_column=payload["timestamp_column"],
            label_column=payload["label_column"],
            t_min=payload["t_min"],
            t_max=payload["t_max"],
            timestamp_format=payload["timestamp_format"],
            version=payload["version"],
        )

    def digest(self) -> str:
        canonical = json.dumps(json.loads(self.to_json()), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "FeatureSchema":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


@dataclass
class WindowSample:
    """One fixed-length training example (T rows of one user)."""

    cat_tokens: np.ndarray   # [T, C_cat] int32
    cont_values: np.ndarray  # [T, C_cont] float
    ts_components: np.ndarray  # [T, 8] int32: year-offset, month, day, weekday, week, h, m, s
    ts_floats: np.ndarray    # [T, 4]: frac-of-day, frac-of-week, frac-of-year, min-max epoch
    user_id: str
    label: int | None = None

    @property
    def window(self) -> int:
        return self.cat_tokens.shape[0]


# ---------------------------------------------------------------------------
# CSV reading and schema inference
# ---------------------------------------------------------------------------


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """UTF-8, header row, RFC 4180 quoting."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty CSV") from None
        rows = [row for row in reader]
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise SchemaError(f"{path}: row {i} has {len(row)} cells, header has {width}")
    return header, rows


def load_roles(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        roles = json.load(fh)
    if "user" not in roles or "columns" not in roles:
        raise SchemaError("role config needs 'user' and 'columns' entries")
    return roles


def _validate_roles(header: list[str], roles: dict) -> dict[str, str]:
    columns = dict(roles["columns"])
    user_col = roles["user"]
    if user_col not in header:
        raise SchemaError(f"user column {user_col!r} not in CSV header {header}")
    columns.setdefault(user_col, "ignore")
    for name, kind in columns.items():
        if name not in header:
            raise SchemaError(f"column {name!r} from role config not in CSV header")
        if kind not in KINDS:
            raise SchemaError(f"column {name!r} has unknown kind {kind!r}")
    for name in header:
        if name not in columns:
            raise SchemaError(f"CSV column {name!r} has no role assigned")
    ts_cols = [n for n, k in columns.items() if k == "timestamp"]
    if len(ts_cols) != 1:
        raise SchemaError(f"exactly one timestamp column required, got {ts_cols}")
    label_cols = [n for n, k in columns.items() if k == "label"]
    if len(label_cols) > 1:
        raise SchemaError(f"at most one label column allowed, got {label_cols}")
    return columns


def infer_schema(csv_path, roles: dict, include_users: set[str] | None = None, *,
                 parsed: tuple[list[str], list[list[str]]] | None = None) -> FeatureSchema:
    """Build vocabularies and normalization stats from the (training) rows.

    `include_users` restricts the scan to a user subset so statistics never
    see validation/test rows. `parsed` is the `(header, rows)` that
    `read_csv(csv_path)` returned, for a caller that already holds them.
    """
    header, rows = parsed if parsed is not None else read_csv(csv_path)
    columns = _validate_roles(header, roles)
    user_col = roles["user"]
    idx = {name: header.index(name) for name in header}
    ts_col = next(n for n, k in columns.items() if k == "timestamp")
    label_cols = [n for n, k in columns.items() if k == "label"]

    if include_users is not None:
        rows = [r for r in rows if r[idx[user_col]] in include_users]
    if not rows:
        raise SchemaError("no rows available for schema inference")

    ts_fmt = detect_timestamp_format(rows[0][idx[ts_col]])
    bad_rows: list[int] = []
    ts_values: list[int] = []
    for i, row in enumerate(rows):
        try:
            ts_values.append(parse_timestamp(row[idx[ts_col]], ts_fmt))
        except ValueError:
            bad_rows.append(i)
    if bad_rows:
        shown = ", ".join(str(i) for i in bad_rows[:20])
        raise SchemaError(
            f"{len(bad_rows)} unparseable timestamp(s) in column {ts_col!r}, rows: {shown}"
        )

    fields: list[FieldSpec] = []
    for name in header:
        kind = columns[name]
        col = idx[name]
        if kind == "categorical":
            vocab: dict[str, int] = {}
            for row in rows:
                v = row[col]
                if v != "" and v not in vocab:
                    vocab[v] = UNK_ID + len(vocab)
            fields.append(FieldSpec(name=name, kind=kind, vocab=vocab))
        elif kind == "continuous":
            values = []
            bad = []
            for i, row in enumerate(rows):
                v = row[col]
                if v == "":
                    continue
                try:
                    values.append(float(v))
                except ValueError:
                    bad.append(i)
            if bad:
                shown = ", ".join(str(i) for i in bad[:20])
                raise SchemaError(f"non-numeric value(s) in continuous column {name!r}, rows: {shown}")
            arr = np.asarray(values, dtype=np.float64)
            if not np.isfinite(arr).all():
                bad = [i for i, row in enumerate(rows)
                       if row[col] != "" and not np.isfinite(float(row[col]))]
                shown = ", ".join(str(i) for i in bad[:20])
                raise SchemaError(f"non-finite value(s) in continuous column {name!r}, rows: {shown}")
            mean = float(arr.mean()) if arr.size else 0.0
            std = float(arr.std()) if arr.size else 0.0  # population std
            if std <= 0.0:
                warnings.warn(f"column {name!r} has zero variance; demoting to ignore")
                fields.append(FieldSpec(name=name, kind="ignore"))
            else:
                fields.append(FieldSpec(name=name, kind=kind, mean=mean, std=std))
        else:
            fields.append(FieldSpec(name=name, kind=kind))

    return FeatureSchema(
        fields=fields,
        user_column=user_col,
        timestamp_column=ts_col,
        label_column=label_cols[0] if label_cols else None,
        t_min=min(ts_values),
        t_max=max(ts_values),
        timestamp_format=ts_fmt,
    )


# ---------------------------------------------------------------------------
# feature encoding
# ---------------------------------------------------------------------------


def time_floats(ts: int, schema: FeatureSchema) -> tuple[float, float, float, float]:
    """Normalized time features: periodic fractions plus a min-max trend."""
    ts = int(ts)
    frac_day, frac_week, frac_year = _calendar(ts)[1]
    return frac_day, frac_week, frac_year, float(_trend(ts, schema.t_min, schema.t_max))


class UserRows(dict):
    """User id -> that user's rows in time order, as `group_rows_by_user` returns them.

    `stamps` holds the parsed epoch seconds of all those rows as one int64
    array, users in the mapping's order, so `make_windows` does not parse the
    timestamp cells again. Change the rows and `stamps` together, or pass a
    plain dict instead.
    """

    def __init__(self):
        super().__init__()
        self.stamps = np.zeros(0, dtype=np.int64)


def _parse_stamps(values, fmt: str) -> np.ndarray:
    """Epoch seconds of timestamp cells as int64; ValueError for one outside years 1-9999."""
    stamps = [parse_timestamp(v, fmt) for v in values]
    if stamps and (min(stamps) < _TS_MIN or max(stamps) > _TS_MAX):
        for t in stamps:  # raises at the first unsupported one, before int64 could overflow
            _require_supported(t)
    return np.array(stamps, dtype=np.int64)


def group_rows_by_user(header: list[str], rows: list[list[str]], schema: FeatureSchema) -> UserRows:
    """Group rows per user (first-appearance order), stable-sorted by timestamp."""
    u = header.index(schema.user_column)
    t = header.index(schema.timestamp_column)
    grouped = UserRows()
    for row in rows:
        grouped.setdefault(row[u], []).append(row)
    grouped.stamps = _parse_stamps([r[t] for user_rows in grouped.values() for r in user_rows],
                                   schema.timestamp_format)
    hi = 0
    for user_rows in grouped.values():
        lo, hi = hi, hi + len(user_rows)
        stamps = grouped.stamps[lo:hi]
        if (stamps[1:] < stamps[:-1]).any():  # only a user whose rows are out of time order
            order = np.argsort(stamps, kind="stable")
            user_rows[:] = [user_rows[i] for i in order.tolist()]
            stamps[:] = stamps[order]
    return grouped


# The only label cells accepted; any other encodes as -1 and is refused by the row checks.
_LABEL_CODES = {"": 0, "0": 0, "1": 1}

# Rows encoded per numpy pass: the calendar maths makes a dozen int64
# temporaries per row, so one pass over a whole split would hold them all.
_ENCODE_BLOCK_ROWS = 4096


def _encode_rows(schema: FeatureSchema, header: list[str], rows: list[list[str]], float_dtype,
                 stamps: np.ndarray | None = None):
    """Encode rows column-wise, one block of rows at a time, into dense arrays.

    Returns (cat, cont, comp, tfl, labels, ts): the feature arrays plus each
    row's epoch seconds, for the caller's time-order check. `stamps`, when
    given, are those epoch seconds already parsed, and the cells are not read.
    """
    idx = {name: header.index(name) for name in header}
    n = len(rows)
    cat_fields = schema.categorical_fields
    cont_fields = schema.continuous_fields
    cat = np.empty((n, len(cat_fields)), dtype=np.int32)
    cont = np.empty((n, len(cont_fields)), dtype=float_dtype)
    comp = np.empty((n, 8), dtype=np.int32)
    tfl = np.empty((n, 4), dtype=float_dtype)
    labels = np.empty(n, dtype=np.int32) if schema.label_column else None
    ts = np.empty(n, dtype=np.int64) if stamps is None else stamps
    for start in range(0, n, _ENCODE_BLOCK_ROWS):
        block = rows[start : start + _ENCODE_BLOCK_ROWS]
        out = slice(start, start + len(block))
        columns = list(zip(*block))
        for c, f in enumerate(cat_fields):
            cat[out, c] = f.encode_categorical_column(columns[idx[f.name]])
        for c, f in enumerate(cont_fields):
            cont[out, c] = f.encode_continuous_column(columns[idx[f.name]])
        if stamps is None:
            ts[out] = _parse_stamps(columns[idx[schema.timestamp_column]], schema.timestamp_format)
        (year, *parts), fracs = _calendar(ts[out])
        comp[out, 0] = schema.year_offset(year)
        for c, part in enumerate(parts, 1):
            comp[out, c] = part
        for c, frac in enumerate(fracs):
            tfl[out, c] = frac
        tfl[out, 3] = _trend(ts[out], schema.t_min, schema.t_max)
        if labels is not None:
            labels[out] = [_LABEL_CODES.get(v, -1) for v in columns[idx[schema.label_column]]]
    return cat, cont, comp, tfl, labels, ts


def _check_time_order(ts: np.ndarray) -> None:
    back = np.flatnonzero(ts[1:] < ts[:-1])
    if back.size:
        raise ContractError(f"rows not sorted by timestamp at offset {int(back[0]) + 1}")


def _check_labels(schema: FeatureSchema, header: list[str], user: str, rows: list[list[str]],
                  labels: np.ndarray) -> None:
    """SchemaError naming the first of one user's rows whose label cell is not "", "0" or "1"."""
    bad = np.flatnonzero(labels < 0)
    if bad.size:
        row = int(bad[0])
        raise SchemaError(
            f"user {user!r}: label {rows[row][header.index(schema.label_column)]!r} in column "
            f"{schema.label_column!r} at row {row} of the user's time-ordered rows is not 0, 1 or empty"
        )


def encode_user_rows(schema: FeatureSchema, header: list[str], rows: list[list[str]], float_dtype=np.float32):
    """Encode one user's sorted rows into dense feature arrays."""
    *arrays, ts = _encode_rows(schema, header, rows, float_dtype)
    _check_time_order(ts)
    labels = arrays[4]
    if labels is not None and rows:
        _check_labels(schema, header, rows[0][header.index(schema.user_column)], rows, labels)
    return tuple(arrays)


def window_count(n_rows: int, window: int, stride: int) -> int:
    return max(0, (n_rows - window) // stride + 1)


def make_windows(schema: FeatureSchema, header: list[str], rows_by_user: dict[str, list[list[str]]],
                 window: int = 10, stride: int = 5, mode: str = "pretrain",
                 float_dtype=np.float32) -> list[WindowSample]:
    """Slide fixed-length windows over each user's rows.

    Windows start at offsets 0, stride, 2*stride, ...; incomplete tails are
    dropped. Pretrain mode strips labels entirely; downstream mode labels a
    window 1 iff any of its rows is labeled 1. All users' rows are encoded
    together, block by block; each user's rows are then checked, and each
    window's arrays are read-only views into the encoded ones.
    """
    if mode not in ("pretrain", "downstream"):
        raise ContractError(f"unknown windowing mode {mode!r}")
    if window < 1 or stride < 1:
        raise ContractError(f"window and stride must be >= 1, got {window}/{stride}")
    if mode == "downstream" and schema.label_column is None:
        raise ContractError("downstream windowing needs a label column")
    stamps = rows_by_user.stamps if isinstance(rows_by_user, UserRows) else None
    if stamps is not None and len(stamps) != sum(map(len, rows_by_user.values())):
        raise ContractError("grouped rows were changed without their timestamps")
    cat, cont, comp, tfl, labels, ts = _encode_rows(
        schema, header, list(itertools.chain.from_iterable(rows_by_user.values())), float_dtype,
        stamps)
    for features in (cat, cont, comp, tfl):
        features.flags.writeable = False  # windows are views, and overlapping ones share rows
    samples: list[WindowSample] = []
    hi = 0
    for user, rows in rows_by_user.items():
        # a copy, not the parsed cell: one live cell keeps the allocator arena of the
        # parsed rows around it (about a megabyte) from being returned once they are freed
        user_id = user.encode().decode()
        lo, hi = hi, hi + len(rows)
        _check_time_order(ts[lo:hi])
        finite = np.isfinite(cont[lo:hi])
        if not finite.all():
            row, col = (int(i[0]) for i in np.nonzero(~finite))
            raise SchemaError(
                f"user {user!r}: non-finite value in continuous column "
                f"{schema.continuous_fields[col].name!r} at row {row} of the user's time-ordered rows"
            )
        if labels is not None:
            _check_labels(schema, header, user, rows, labels[lo:hi])
        for start in range(lo, hi - window + 1, stride):
            end = start + window
            label = None
            if mode == "downstream":
                label = int(labels[start:end].any())
            samples.append(
                WindowSample(
                    cat_tokens=cat[start:end],
                    cont_values=cont[start:end],
                    ts_components=comp[start:end],
                    ts_floats=tfl[start:end],
                    user_id=user_id,
                    label=label,
                )
            )
    return samples


def split_users(user_ids: list[str], fractions=(0.8, 0.1, 0.1)) -> tuple[list[str], list[str], list[str]]:
    """Deterministic train/val/test split by user, in first-appearance order."""
    n = len(user_ids)
    n_train = int(n * fractions[0])
    n_val = int(n * fractions[1])
    return (
        list(user_ids[:n_train]),
        list(user_ids[n_train : n_train + n_val]),
        list(user_ids[n_train + n_val :]),
    )


def users_in_order(header: list[str], rows: list[list[str]], user_column: str) -> list[str]:
    u = header.index(user_column)
    seen: dict[str, None] = {}
    for row in rows:
        seen.setdefault(row[u])
    return list(seen)
