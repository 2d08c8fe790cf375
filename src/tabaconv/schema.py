"""CSV ingestion: typed field schemas, timestamp decomposition, windowing.

A CSV of per-user, time-ordered event rows is turned into fixed-length
window samples of categorical token ids, z-scored continuous values and
calendar/time features. Vocabularies and normalization statistics are
always built on the training split only.

The CSV is streamed once into compact per-column arrays (`read_columns`);
splitting, schema inference, grouping and windowing all run on those.
The row functions (`read_csv`, `users_in_order`, `group_rows_by_user` and
`make_windows` on rows) feed their rows through the same block encoder.

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
# CSV reading: one streamed pass into per-column arrays
# ---------------------------------------------------------------------------

# Rows per block: the CSV is read and its cells encoded this many rows at a
# time, and windowing runs its calendar maths (a dozen int64 temporaries per
# row) on blocks of this many rows.
_ENCODE_BLOCK_ROWS = 4096


def _csv_blocks(path):
    """Yield the header, then the data rows in blocks of `_ENCODE_BLOCK_ROWS`.

    UTF-8, RFC 4180 quoting. A row whose width differs from the header's is
    a SchemaError, raised when its block is read.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty CSV")
        yield header
        width, start = len(header), 0
        while block := list(itertools.islice(reader, _ENCODE_BLOCK_ROWS)):
            if set(map(len, block)) != {width}:
                i = next(i for i, row in enumerate(block) if len(row) != width)
                raise SchemaError(f"{path}: row {start + i} has {len(block[i])} cells, header has {width}")
            yield block
            start += len(block)
            del block  # not alive while the next one is read


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Every row of a CSV as a list of cells: UTF-8, header row, RFC 4180 quoting."""
    blocks = _csv_blocks(path)
    header = next(blocks)
    return header, [row for block in blocks for row in block]


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


@dataclass(frozen=True)
class _Layout:
    """The columns a CsvColumns keeps: coded ones include the user column."""

    user: str
    timestamp: str | None
    coded: tuple[str, ...]
    continuous: tuple[str, ...] = ()


def _roles_layout(header: list[str], roles: dict) -> _Layout:
    columns = _validate_roles(header, roles)
    coded = [roles["user"]] + [n for n, k in columns.items() if k in ("categorical", "label")]
    return _Layout(roles["user"], next(n for n, k in columns.items() if k == "timestamp"),
                   tuple(dict.fromkeys(coded)),
                   tuple(n for n, k in columns.items() if k == "continuous"))


def _schema_layout(header: list[str], schema: FeatureSchema, features: bool = True) -> _Layout:
    """The user and timestamp columns, plus every encoded column when `features`."""
    coded, continuous = [schema.user_column], []
    if features:
        coded += [f.name for f in schema.categorical_fields]
        coded += [schema.label_column] if schema.label_column else []
        continuous = [f.name for f in schema.continuous_fields]
    layout = _Layout(schema.user_column, schema.timestamp_column, tuple(dict.fromkeys(coded)),
                     tuple(continuous))
    for name in (*layout.coded, *layout.continuous, layout.timestamp):
        if name not in header:
            raise SchemaError(f"column {name!r} of the schema not in CSV header")
    return layout


def _parse_cells(cells, parse, errors: dict[int, str], start: int, fill) -> list:
    """parse(cell) of each cell; for one that raises ValueError, `fill` and its message in `errors`."""
    out = []
    for i, cell in enumerate(cells):
        try:
            out.append(parse(cell))
        except ValueError as exc:
            errors[start + i] = str(exc)
            out.append(fill)
    return out


def _float_cell(cell: str) -> float:
    return float(cell) if cell != "" else np.nan


class CsvColumns:
    """A CSV log as compact per-column arrays, one entry per data row in file order.

    Built one block of rows at a time by `_add`, the only cell encoder:
    `read_columns` streams a file through it and drops each block's strings
    once they are encoded; the row functions feed it rows they hold.

    * `codes[name]`: int32 first-appearance codes of a coded (user,
      categorical or label) column, `values[name]` its distinct cells in
      that order; `users` is the user column's.
    * `floats[name]`: a continuous column as float64, NaN where `empty[name]`
      is set or where `errors[name]` holds the message of a cell that is not
      a number.
    * `stamps`: epoch seconds (int64) of the timestamp cells, read as
      `timestamp_format`, 0 where `stamp_errors` (unparseable) or
      `unsupported` (outside years 1-9999) holds the cell's message.
    * `first_stamps[code]`: the raw timestamp cell of each user's first row,
      from which `infer_schema` detects the format.

    Cell errors are kept, not raised: a command raises them only for the
    rows of the users it reads.
    """

    def __init__(self, header: list[str], layout: _Layout, timestamp_format: str | None, reread):
        self.header, self.layout, self.timestamp_format = header, layout, timestamp_format
        self._reread = reread  # timestamp format -> the same source encoded again
        self._index = {name: header.index(name)
                       for name in (*layout.coded, *layout.continuous, layout.timestamp)
                       if name is not None}
        self._lookup: dict[str, dict[str, int]] = {name: {} for name in layout.coded}
        self._parts: dict[str, list[np.ndarray]] = {name: [] for name in self._index}
        self._empty_parts: dict[str, list[np.ndarray]] = {name: [] for name in layout.continuous}
        self.errors: dict[str, dict[int, str]] = {name: {} for name in layout.continuous}
        self.stamp_errors: dict[int, str] = {}
        self.unsupported: dict[int, str] = {}
        self.first_stamps: list[str] = []
        self.n_rows = 0

    @property
    def users(self) -> list[str]:
        return self.values[self.layout.user]

    def _add(self, block: list[list[str]]) -> None:
        """Encode one block of rows."""
        if not block:
            return
        start, self.n_rows = self.n_rows, self.n_rows + len(block)
        cells = list(zip(*block))
        lay = self.layout
        if lay.timestamp is not None:
            stamp_cells = cells[self._index[lay.timestamp]]
        for name in lay.coded:
            col = cells[self._index[name]]
            lookup = self._lookup[name]
            known = len(lookup)
            for v in dict.fromkeys(col):  # the block's distinct cells, in first-appearance order
                lookup.setdefault(v, len(lookup))
            codes = np.array(list(map(lookup.__getitem__, col)), dtype=np.int32)
            self._parts[name].append(codes)
            if name == lay.user and lay.timestamp is not None and len(lookup) > known:
                new = np.flatnonzero(codes >= known)
                first = new[np.unique(codes[new], return_index=True)[1]]  # in code order
                self.first_stamps += [stamp_cells[i] for i in first.tolist()]
        for name in lay.continuous:
            col = cells[self._index[name]]
            try:  # no empty and no bad cell
                values, empty = np.array(list(map(float, col))), np.zeros(len(col), dtype=bool)
            except ValueError:
                values = np.array(_parse_cells(col, _float_cell, self.errors[name], start, np.nan))
                empty = np.array([v == "" for v in col], dtype=bool)
            self._parts[name].append(values)
            self._empty_parts[name].append(empty)
        if lay.timestamp is not None:
            self._add_stamps(stamp_cells, start)

    def _add_stamps(self, cells, start: int) -> None:
        if self.timestamp_format is None:  # a guess; infer_schema detects the real one
            try:
                self.timestamp_format = detect_timestamp_format(cells[0])
            except ValueError:
                self.timestamp_format = "epoch"
        fmt = self.timestamp_format
        try:  # int() strips whitespace as parse_timestamp does; only its messages differ
            stamps = list(map(int, cells)) if fmt == "epoch" else list(map(parse_iso8601, cells))
        except ValueError:
            stamps = _parse_cells(cells, lambda v: parse_timestamp(v, fmt), self.stamp_errors, start, 0)
        if min(stamps) < _TS_MIN or max(stamps) > _TS_MAX:  # before int64 could overflow
            for i, t in enumerate(stamps):
                try:
                    _require_supported(t)
                except ValueError as exc:
                    self.unsupported[start + i] = str(exc)
                    stamps[i] = 0
        self._parts[self.layout.timestamp].append(np.array(stamps, dtype=np.int64))

    def _finish(self) -> "CsvColumns":
        def joined(parts: dict[str, list[np.ndarray]], name: str | None, dtype) -> np.ndarray:
            blocks = parts.pop(name, [])  # one column's blocks at a time, freed once joined
            return np.concatenate(blocks) if blocks else np.zeros(0, dtype=dtype)

        lay = self.layout
        self.codes = {name: joined(self._parts, name, np.int32) for name in lay.coded}
        self.values = {name: list(self._lookup[name]) for name in lay.coded}
        self.floats = {name: joined(self._parts, name, np.float64) for name in lay.continuous}
        self.empty = {name: joined(self._empty_parts, name, bool) for name in lay.continuous}
        self.stamps = joined(self._parts, lay.timestamp, np.int64)
        del self._lookup, self._parts, self._empty_parts
        return self

    def reparse_timestamps(self, fmt: str) -> None:
        """Encode the source again, in place, reading its timestamps as `fmt`."""
        self.__dict__.update(self._reread(fmt).__dict__)

    def rows_of(self, users) -> np.ndarray:
        """Indices of the rows of `users` (all rows when None), in file order."""
        if users is None:
            return np.arange(self.n_rows)
        keep = np.array([u in users for u in self.users], dtype=bool)
        return np.flatnonzero(keep[self.codes[self.layout.user]])


def read_columns(path, *, roles: dict | None = None, schema: FeatureSchema | None = None,
                 timestamp_format: str | None = None) -> CsvColumns:
    """Stream a CSV into per-column arrays, `_ENCODE_BLOCK_ROWS` rows at a time.

    The columns kept and their roles come from a role config or from a
    schema, whose timestamp format is then used. Without one, the format is
    guessed from the first row and `infer_schema` re-reads the file in the
    rare case that the training rows have another. Row-width errors come
    first: a bad role config or a schema column missing from the header is
    raised only once every row's width is checked.
    """
    blocks = _csv_blocks(path)
    header = next(blocks)
    try:
        layout = _roles_layout(header, roles) if schema is None else _schema_layout(header, schema)
    except SchemaError:
        for _ in blocks:
            pass
        raise
    log = CsvColumns(header, layout, schema.timestamp_format if schema else timestamp_format,
                     lambda fmt: read_columns(path, roles=roles, schema=schema, timestamp_format=fmt))
    for block in blocks:
        log._add(block)
        del block  # not alive while the next one is read
    return log._finish()


def _columns_from_rows(header: list[str], rows: list[list[str]], layout: _Layout,
                       timestamp_format: str | None = None) -> CsvColumns:
    """Rows held in memory, through the same block encoder as `read_columns`."""
    log = CsvColumns(header, layout, timestamp_format,
                     lambda fmt: _columns_from_rows(header, rows, layout, fmt))
    for start in range(0, len(rows), _ENCODE_BLOCK_ROWS):
        log._add(rows[start : start + _ENCODE_BLOCK_ROWS])
    return log._finish()


def _positions(errors: dict[int, str], rows: np.ndarray) -> list[int]:
    """Positions in `rows` of the rows that `errors` names."""
    return np.flatnonzero(np.isin(rows, list(errors))).tolist() if errors else []


def _first_error(errors: dict[int, str], rows: np.ndarray) -> tuple[int, str] | None:
    """(position in `rows`, message) of the first of `rows` that `errors` names."""
    positions = _positions(errors, rows)
    return (positions[0], errors[int(rows[positions[0]])]) if positions else None


def _shown(positions: list[int]) -> str:
    return ", ".join(str(i) for i in positions[:20])


def _raise_stamp_errors(log: CsvColumns, rows: np.ndarray) -> None:
    """SchemaError for the first unparseable timestamp among `rows`, in their order,
    else for the first outside years 1-9999."""
    for errors in (log.stamp_errors, log.unsupported):
        first = _first_error(errors, rows)
        if first is not None:
            raise SchemaError(first[1])


def _by_user(log: CsvColumns, rows: np.ndarray) -> np.ndarray:
    """`rows` with users in first-appearance order, each user's in file order."""
    return rows[np.argsort(log.codes[log.layout.user][rows], kind="stable")]


# ---------------------------------------------------------------------------
# schema inference
# ---------------------------------------------------------------------------


def infer_schema(csv_path, roles: dict, include_users: set[str] | None = None, *,
                 parsed: CsvColumns | tuple[list[str], list[list[str]]] | None = None) -> FeatureSchema:
    """Build vocabularies and normalization stats from the (training) rows.

    `include_users` restricts the scan to a user subset so statistics never
    see validation/test rows. `parsed` is the log already read from
    `csv_path`: the CsvColumns of `read_columns(csv_path, roles=roles)`, or
    the `(header, rows)` of `read_csv`. Vocabularies keep first-appearance
    order among the training rows; mean and std run over their float64
    cells in file order; the timestamp format is the first training row's.
    """
    if parsed is None:
        log = read_columns(csv_path, roles=roles)
    elif isinstance(parsed, CsvColumns):
        log = parsed
    else:
        header, rows = parsed
        log = _columns_from_rows(header, rows, _roles_layout(header, roles))
    columns = _validate_roles(log.header, roles)
    ts_col = log.layout.timestamp
    label_cols = [n for n, k in columns.items() if k == "label"]

    rows = log.rows_of(include_users)
    if not rows.size:
        raise SchemaError("no rows available for schema inference")
    try:
        ts_fmt = detect_timestamp_format(log.first_stamps[log.codes[log.layout.user][rows[0]]])
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    if ts_fmt != log.timestamp_format:
        log.reparse_timestamps(ts_fmt)
    bad = _positions(log.stamp_errors, rows)
    if bad:
        raise SchemaError(f"{len(bad)} unparseable timestamp(s) in column {ts_col!r}, rows: {_shown(bad)}")

    fields: list[FieldSpec] = []
    for name in log.header:
        kind = columns[name]
        if kind == "categorical":
            present, first = np.unique(log.codes[name][rows], return_index=True)
            cells = log.values[name]
            vocab: dict[str, int] = {}
            for code in present[np.argsort(first)].tolist():
                if cells[code] != "":
                    vocab[cells[code]] = UNK_ID + len(vocab)
            fields.append(FieldSpec(name=name, kind=kind, vocab=vocab))
        elif kind == "continuous":
            bad = _positions(log.errors[name], rows)
            if bad:
                raise SchemaError(f"non-numeric value(s) in continuous column {name!r}, rows: {_shown(bad)}")
            values = log.floats[name][rows]
            filled = ~log.empty[name][rows]
            arr = values[filled]
            if not np.isfinite(arr).all():
                bad = np.flatnonzero(filled & ~np.isfinite(values)).tolist()
                raise SchemaError(f"non-finite value(s) in continuous column {name!r}, rows: {_shown(bad)}")
            mean = float(arr.mean()) if arr.size else 0.0
            std = float(arr.std()) if arr.size else 0.0  # population std
            if std <= 0.0:
                warnings.warn(f"column {name!r} has zero variance; demoting to ignore")
                fields.append(FieldSpec(name=name, kind="ignore"))
            else:
                fields.append(FieldSpec(name=name, kind=kind, mean=mean, std=std))
        else:
            fields.append(FieldSpec(name=name, kind=kind))
    _raise_stamp_errors(log, _by_user(log, rows))

    stamps = log.stamps[rows]
    return FeatureSchema(
        fields=fields,
        user_column=roles["user"],
        timestamp_column=ts_col,
        label_column=label_cols[0] if label_cols else None,
        t_min=int(stamps.min()),
        t_max=int(stamps.max()),
        timestamp_format=ts_fmt,
    )


# ---------------------------------------------------------------------------
# grouping and feature encoding
# ---------------------------------------------------------------------------


def time_floats(ts: int, schema: FeatureSchema) -> tuple[float, float, float, float]:
    """Normalized time features: periodic fractions plus a min-max trend."""
    ts = int(ts)
    frac_day, frac_week, frac_year = _calendar(ts)[1]
    return frac_day, frac_week, frac_year, float(_trend(ts, schema.t_min, schema.t_max))


@dataclass
class GroupedColumns:
    """Rows of a CsvColumns log per user: `order[bounds[i]:bounds[i + 1]]` are `users[i]`'s."""

    log: CsvColumns
    order: np.ndarray
    users: list[str]
    bounds: list[int]

    def spans(self):
        """(user, lo, hi) of each user's slice of `order`."""
        return zip(self.users, self.bounds[:-1], self.bounds[1:])


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


def _group(log: CsvColumns, schema: FeatureSchema, users) -> GroupedColumns:
    """One stable lexsort of the kept rows on (user code, timestamp)."""
    rows = log.rows_of(users)
    if log.stamp_errors or log.unsupported:
        _raise_stamp_errors(log, _by_user(log, rows))
    codes = log.codes[log.layout.user]
    order = rows[np.lexsort((log.stamps[rows], codes[rows]))]
    ordered = codes[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]]) if order.size else order
    names = log.users
    return GroupedColumns(log, order, [names[c] for c in ordered[starts].tolist()],
                          [*starts.tolist(), len(order)])


def group_rows_by_user(header: list[str], rows, schema: FeatureSchema,
                       users: set[str] | None = None):
    """Group rows per user (first-appearance order), stable-sorted by timestamp.

    `rows` is a CsvColumns log, grouped into a GroupedColumns, or a list of
    rows, grouped into a UserRows. `users` keeps only those users' rows.
    """
    if isinstance(rows, CsvColumns):
        return _group(rows, schema, users)
    log = _columns_from_rows(header, rows, _schema_layout(header, schema, features=False),
                             schema.timestamp_format)
    grouped = _group(log, schema, users)
    out = UserRows()
    for user, lo, hi in grouped.spans():
        out[user] = [rows[i] for i in grouped.order[lo:hi].tolist()]
    out.stamps = log.stamps[grouped.order]
    return out


def _columns_of_user_rows(schema: FeatureSchema, header: list[str],
                          rows_by_user: dict[str, list[list[str]]]) -> GroupedColumns:
    """A dict of each user's rows, encoded in the dict's order."""
    stamps = rows_by_user.stamps if isinstance(rows_by_user, UserRows) else None
    rows = list(itertools.chain.from_iterable(rows_by_user.values()))
    if stamps is not None and len(stamps) != len(rows):
        raise ContractError("grouped rows were changed without their timestamps")
    layout = _schema_layout(header, schema)
    if stamps is not None:
        layout = _Layout(layout.user, None, layout.coded, layout.continuous)
    log = _columns_from_rows(header, rows, layout, schema.timestamp_format)
    if stamps is not None:
        log.stamps = stamps
    _raise_stamp_errors(log, np.arange(len(rows)))
    bounds = np.cumsum([0, *map(len, rows_by_user.values())]).tolist()
    return GroupedColumns(log, np.arange(len(rows)), list(rows_by_user), bounds)


# The only label cells accepted; any other encodes as -1 and is refused by the row checks.
_LABEL_CODES = {"": 0, "0": 0, "1": 1}


def _encode(schema: FeatureSchema, grouped: GroupedColumns, float_dtype):
    """Feature arrays of the grouped rows, in their order.

    Returns (cat, cont, comp, tfl, labels, ts). Raises the first
    non-numeric continuous cell among the rows, in their order.
    """
    log, order = grouped.log, grouped.order
    cat_fields = schema.categorical_fields
    cont_fields = schema.continuous_fields
    bad = [(e[0], c, e[1]) for c, f in enumerate(cont_fields)
           if (e := _first_error(log.errors[f.name], order)) is not None]
    if bad:  # the first bad cell in row order, then in column order
        raise SchemaError(min(bad)[2])
    n = len(order)
    cat = np.empty((n, len(cat_fields)), dtype=np.int32)
    for c, f in enumerate(cat_fields):
        token_ids = np.array(f.encode_categorical_column(log.values[f.name]), dtype=np.int32)
        cat[:, c] = token_ids[log.codes[f.name][order]]
    cont = np.empty((n, len(cont_fields)), dtype=float_dtype)
    for c, f in enumerate(cont_fields):
        z = (log.floats[f.name][order] - f.mean) / f.std
        z[log.empty[f.name][order]] = 0.0  # an empty cell is the training mean
        cont[:, c] = z
    ts = log.stamps[order]
    comp = np.empty((n, 8), dtype=np.int32)
    tfl = np.empty((n, 4), dtype=float_dtype)
    for start in range(0, n, _ENCODE_BLOCK_ROWS):
        out = slice(start, start + _ENCODE_BLOCK_ROWS)
        (year, *parts), fracs = _calendar(ts[out])
        comp[out, 0] = schema.year_offset(year)
        for c, part in enumerate(parts, 1):
            comp[out, c] = part
        for c, frac in enumerate(fracs):
            tfl[out, c] = frac
        tfl[out, 3] = _trend(ts[out], schema.t_min, schema.t_max)
    labels = None
    if schema.label_column:
        codes = np.array([_LABEL_CODES.get(v, -1) for v in log.values[schema.label_column]],
                         dtype=np.int32)
        labels = codes[log.codes[schema.label_column][order]]
    return cat, cont, comp, tfl, labels, ts


def _check_time_order(ts: np.ndarray) -> None:
    back = np.flatnonzero(ts[1:] < ts[:-1])
    if back.size:
        raise ContractError(f"rows not sorted by timestamp at offset {int(back[0]) + 1}")


def _check_user_rows(schema: FeatureSchema, grouped: GroupedColumns, user: str, lo: int, hi: int,
                     cont: np.ndarray, labels: np.ndarray | None, ts: np.ndarray) -> None:
    """One user's encoded rows: time order, finite continuous values, labels 0, 1 or empty."""
    _check_time_order(ts[lo:hi])
    finite = np.isfinite(cont[lo:hi])
    if not finite.all():
        row, col = (int(i[0]) for i in np.nonzero(~finite))
        raise SchemaError(
            f"user {user!r}: non-finite value in continuous column "
            f"{schema.continuous_fields[col].name!r} at row {row} of the user's time-ordered rows"
        )
    if labels is not None:
        bad = np.flatnonzero(labels[lo:hi] < 0)
        if bad.size:
            row = int(bad[0])
            log, label = grouped.log, schema.label_column
            value = log.values[label][log.codes[label][grouped.order[lo + row]]]
            raise SchemaError(
                f"user {user!r}: label {value!r} in column {label!r} at row {row} "
                f"of the user's time-ordered rows is not 0, 1 or empty"
            )


def encode_user_rows(schema: FeatureSchema, header: list[str], rows: list[list[str]], float_dtype=np.float32):
    """Encode one user's sorted rows into dense feature arrays."""
    user = rows[0][header.index(schema.user_column)] if rows else ""
    grouped = _columns_of_user_rows(schema, header, {user: rows})
    cat, cont, comp, tfl, labels, ts = _encode(schema, grouped, float_dtype)
    _check_user_rows(schema, grouped, user, 0, len(rows), cont, labels, ts)
    return cat, cont, comp, tfl, labels


def window_count(n_rows: int, window: int, stride: int) -> int:
    return max(0, (n_rows - window) // stride + 1)


def make_windows(schema: FeatureSchema, header: list[str], rows_by_user,
                 window: int = 10, stride: int = 5, mode: str = "pretrain",
                 float_dtype=np.float32) -> list[WindowSample]:
    """Slide fixed-length windows over each user's rows.

    `rows_by_user` is the GroupedColumns of `group_rows_by_user` on a
    CsvColumns log, or a dict of each user's rows in time order. Windows
    start at offsets 0, stride, 2*stride, ...; incomplete tails are
    dropped. Pretrain mode strips labels entirely; downstream mode labels a
    window 1 iff any of its rows is labeled 1. All users' rows are encoded
    together; each user's rows are then checked, and each window's arrays
    are read-only views into the encoded ones.
    """
    if mode not in ("pretrain", "downstream"):
        raise ContractError(f"unknown windowing mode {mode!r}")
    if window < 1 or stride < 1:
        raise ContractError(f"window and stride must be >= 1, got {window}/{stride}")
    if mode == "downstream" and schema.label_column is None:
        raise ContractError("downstream windowing needs a label column")
    if isinstance(rows_by_user, GroupedColumns):
        grouped = rows_by_user
    else:
        grouped = _columns_of_user_rows(schema, header, rows_by_user)
    cat, cont, comp, tfl, labels, ts = _encode(schema, grouped, float_dtype)
    for features in (cat, cont, comp, tfl):
        features.flags.writeable = False  # windows are views, and overlapping ones share rows
    samples: list[WindowSample] = []
    for user, lo, hi in grouped.spans():
        _check_user_rows(schema, grouped, user, lo, hi, cont, labels, ts)
        # a copy, not the parsed cell: one live cell keeps the allocator arena of the
        # parsed rows around it (about a megabyte) from being returned once they are freed
        user_id = user.encode().decode()
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
    """Distinct user ids in first-appearance order."""
    return _columns_from_rows(header, rows, _Layout(user_column, None, (user_column,))).users
