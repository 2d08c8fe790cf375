"""CSV ingestion: typed field schemas, timestamp decomposition, windowing.

A CSV of per-user, time-ordered event rows is turned into fixed-length
windows of categorical token ids, z-scored continuous values and
calendar/time features. Vocabularies and normalization statistics are
always built on the training split only.

The CSV is streamed once into compact per-column arrays (`read_columns`);
splitting, schema inference, grouping and windowing all run on those.
The file is read `_ENCODE_BLOCK_ROWS` lines at a time. A plain block (see
`_PlainBlock`: no quotes, no NUL, no bare CR, UTF-8, one cell per header
column on every line, as every `gen` log is) is tokenized in numpy. From
the first block that is not plain, csv.reader reads
the rest of the file (`_csv_rows`), so every cell and error is the one
csv.reader gives; both kinds of block reach the same cell encoder.
The row functions (`read_csv`, `users_in_order` and `group_rows_by_user`
on a list of rows) feed their rows through the same block encoder, and
`group_rows_by_user` returns the same GroupedColumns for rows as for a log.
`make_windows` returns the windows as columns (`Windows`): the encoded
row arrays once, plus each window's start row, label and user. A batch is
one take per row array; a single window is a `WindowSample` of views.

`FeatureSchema.load` refuses, with a SchemaError naming the file and the
key, any file that is not the JSON `FeatureSchema.save` writes.

Token id conventions: 0 = PAD, 1 = MASK, real values start at 2; values
unseen during schema building map to id 2 at encode time.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import re
import warnings
from dataclasses import dataclass, replace

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
        raise SchemaError(f"timestamp {ts} falls in unsupported year {year}")


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
    """UTC ISO-8601 (seconds precision) to epoch seconds; a date or time that does not exist is refused."""
    m = _ISO_RE.match(value.strip())
    if m is None:
        raise SchemaError(f"not an ISO-8601 UTC timestamp: {value!r}")
    year, month, day, hour, minute, second = (int(g) for g in m.groups())
    days = _days_from_civil(year, month, day)
    # an out-of-range day would roll over into the next month (Feb 29 of 2021 into Mar 1)
    if not (1 <= month <= 12 and _civil_from_days(days)[2] == day and hour < 24 and minute < 60
            and second < 60):
        raise SchemaError(f"not an ISO-8601 UTC timestamp: {value!r}")
    return days * 86400 + hour * 3600 + minute * 60 + second


def detect_timestamp_format(value: str) -> str:
    if _EPOCH_RE.match(value.strip()):
        return "epoch"
    if _ISO_RE.match(value.strip()):
        return "iso8601"
    raise SchemaError(f"unrecognized timestamp format: {value!r}")


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
    def from_json(cls, text: str, source: str = "schema") -> "FeatureSchema":
        """The schema `to_json` wrote; SchemaError naming `source` and the key for any other JSON."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise SchemaError(f"{source}: schema is not valid JSON: {exc}") from None
        _check_schema_payload(payload, source)
        if payload["version"] > SCHEMA_VERSION:
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
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise SchemaError(f"{path}: schema is not UTF-8 text: {exc}") from None
        return cls.from_json(text, source=str(path))


# The JSON type of each top-level key and each field entry key that `to_json` writes.
_SCHEMA_KEY_TYPES = (("version", int), ("user_column", str), ("timestamp_column", str),
                     ("label_column", (str, type(None))), ("t_min", int), ("t_max", int),
                     ("timestamp_format", str), ("fields", list))
_FIELD_KEY_TYPES = (("name", str), ("kind", str), ("vocab", (list, type(None))),
                    ("mean", (int, float, type(None))), ("std", (int, float, type(None))))


def _check_keys(obj: dict, key_types, where: str) -> None:
    """SchemaError unless `obj` holds every key with a value of its JSON type; no key takes a bool."""
    for key, kind in key_types:
        if key not in obj:
            raise SchemaError(f"{where}: missing key {key!r}")
        value = obj[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise SchemaError(f"{where}: key {key!r} has the wrong type: {json.dumps(value)}")


def _check_schema_payload(payload, source: str) -> None:
    """SchemaError naming `source` and the key unless `payload` has the structure `to_json` writes."""
    if not isinstance(payload, dict):
        raise SchemaError(f"{source}: schema must be a JSON object, got {type(payload).__name__}")
    _check_keys(payload, _SCHEMA_KEY_TYPES, source)
    if not _TS_MIN <= payload["t_min"] <= payload["t_max"] <= _TS_MAX:
        raise SchemaError(f"{source}: keys 't_min' <= 't_max' must be epoch seconds in years 1-9999, "
                          f"got {payload['t_min']} and {payload['t_max']}")
    if payload["timestamp_format"] not in ("epoch", "iso8601"):
        raise SchemaError(f"{source}: key 'timestamp_format' must be 'epoch' or 'iso8601', "
                          f"got {payload['timestamp_format']!r}")
    for i, f in enumerate(payload["fields"]):
        where = f"{source}: fields[{i}]"
        if not isinstance(f, dict):
            raise SchemaError(f"{where} must be a JSON object, got {json.dumps(f)}")
        _check_keys(f, _FIELD_KEY_TYPES, where)
        if f["kind"] not in KINDS:
            raise SchemaError(f"{where}: key 'kind' must be one of {list(KINDS)}, got {f['kind']!r}")
        if f["vocab"] is not None and not all(
                isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
                and isinstance(e[1], int) and not isinstance(e[1], bool) for e in f["vocab"]):
            raise SchemaError(f"{where}: key 'vocab' must hold [value, token id] pairs")
        if f["kind"] == "categorical" and f["vocab"] is None:
            raise SchemaError(f"{where}: key 'vocab' is null for a categorical field")
        if f["kind"] == "continuous" and (f["mean"] is None or f["std"] is None):
            raise SchemaError(f"{where}: keys 'mean' and 'std' must be numbers for a continuous field")


@dataclass(slots=True)
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


@dataclass(frozen=True, eq=False)
class Windows:
    """A set of fixed-length windows over encoded rows, held as columns.

    Window i is rows `starts[i] : starts[i] + window` of the read-only row
    arrays `cat` [N, C_cat], `cont` [N, C_cont], `comp` [N, 8] and `tfl`
    [N, 4], which every subset of one `make_windows` result shares.
    `labels[i]` is its label (None for the whole set in pretrain mode) and
    `user_names[user_codes[i]]` its user.

    `len` counts windows; an int index gives a WindowSample of read-only
    views, and so does iteration; a slice, an index array or a boolean mask
    gives another Windows over the same rows.
    """

    cat: np.ndarray
    cont: np.ndarray
    comp: np.ndarray
    tfl: np.ndarray
    starts: np.ndarray  # [n] int64 first row of each window
    window: int
    labels: np.ndarray | None  # [n] int64, 0 or 1
    user_codes: np.ndarray  # [n] int64 into user_names
    user_names: list[str]

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self._sample(key)
        return replace(self, starts=self.starts[key], user_codes=self.user_codes[key],
                       labels=None if self.labels is None else self.labels[key])

    def __iter__(self):
        return map(self._sample, range(len(self)))

    def _sample(self, i) -> WindowSample:
        start = int(self.starts[i])
        rows = slice(start, start + self.window)
        return WindowSample(self.cat[rows], self.cont[rows], self.comp[rows], self.tfl[rows],
                            self.user_names[self.user_codes[i]],
                            None if self.labels is None else int(self.labels[i]))


# ---------------------------------------------------------------------------
# CSV reading: one streamed pass into per-column arrays
# ---------------------------------------------------------------------------

# Rows per block: the CSV is read and its cells encoded this many rows at a
# time, and windowing runs its calendar maths (a dozen int64 temporaries per
# row) on blocks of this many rows.
_ENCODE_BLOCK_ROWS = 4096

# A first line this long or longer is left to csv.reader, as is a header that is not plain.
_PLAIN_HEADER_BYTES = 1 << 16

_COMMA, _LF, _CR = b",\n\r"
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype="<u8")  # masks of a word's first k bytes


def _csv_rows(path, skip: int = 0):
    """Yield the header, then the data rows after the first `skip`, in blocks of
    `_ENCODE_BLOCK_ROWS`, as csv.reader reads them.

    UTF-8, RFC 4180 quoting. A row whose width differs from the header's, or
    bytes that are not UTF-8, are a SchemaError, raised when their block is read.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty CSV")
            yield header
            for _ in itertools.islice(reader, skip):
                pass
            width, start = len(header), skip
            while block := list(itertools.islice(reader, _ENCODE_BLOCK_ROWS)):
                if set(map(len, block)) != {width}:
                    i = next(i for i, row in enumerate(block) if len(row) != width)
                    raise SchemaError(f"{path}: row {start + i} has {len(block[i])} cells, "
                                      f"header has {width}")
                yield block
                start += len(block)
                del block  # not alive while the next one is read
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: CSV is not UTF-8 text: {exc}") from None


def _plain_header(line: bytes) -> list[str] | None:
    """The cells of a first line csv.reader would split at every comma; None for any other."""
    if len(line) >= _PLAIN_HEADER_BYTES or _PlainBlock.parse(line, line.count(b",") + 1) is None:
        return None
    return line.rstrip(b"\r\n").decode().split(",")  # a plain line ends in one LF or CRLF at most


def _is_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _csv_blocks(path):
    """Yield the header, then the data rows in blocks of `_ENCODE_BLOCK_ROWS` lines.

    Each block is a `_PlainBlock` while the blocks are plain: their bytes
    are split in numpy. From the first block that is not plain (and for
    all of a file whose header line is not), blocks are `_RowBlock`s of
    `_csv_rows`, which reads the file again from its start and skips the
    rows of the plain blocks. So every cell, row number and error is the
    one csv.reader gives.
    """
    skip = None
    with open(path, "rb") as fh:
        header = _plain_header(fh.readline(_PLAIN_HEADER_BYTES))
        if header is not None:
            yield header
            width, skip = len(header), 0
            # longer than any plain line, so a line cut here makes its block not plain
            read_line = functools.partial(fh.readline, width * (csv.field_size_limit() + 1) + 2)
            while lines := list(itertools.islice(iter(read_line, b""), _ENCODE_BLOCK_ROWS)):
                buf = b"".join(lines)
                del lines
                block = _PlainBlock.parse(buf, width)
                del buf
                if block is None:
                    break
                yield block
                skip += block.n
                del block  # not alive while the next one is read
            else:
                return
    rows = _csv_rows(path, skip or 0)
    header = next(rows)
    if skip is None:
        yield header
    for block in rows:
        yield _RowBlock(block)
        del block


class _RowBlock:
    """The cells of rows csv.reader read, by column (the encoder's view of a block)."""

    def __init__(self, rows: list[list[str]]):
        self.n = len(rows)
        self._columns = list(zip(*rows))

    def text(self, j: int):
        return self._columns[j]

    def floats(self, j: int) -> np.ndarray:
        return np.array(list(map(float, self._columns[j])))

    def ints(self, j: int) -> list[int]:
        return list(map(int, self._columns[j]))

    def text_at(self, j: int, rows: list[int]) -> list[str]:
        return [self._columns[j][i] for i in rows]

    def distinct(self, j: int) -> tuple[list[str], np.ndarray]:
        """Column j's distinct cells in first-appearance order, and each cell's index among them."""
        col = self._columns[j]
        index = {v: i for i, v in enumerate(dict.fromkeys(col))}
        return list(index), np.array(list(map(index.__getitem__, col)), dtype=np.int32)


class _PlainBlock:
    """Lines that csv.reader would split at every comma, tokenized in numpy.

    A block is plain when it has no `"` and no NUL byte, is UTF-8, has no CR
    that does not end a line as CRLF, has `width - 1` commas on every line,
    no blank line and no cell longer than csv's field size limit. Cell
    (i, j) is `lens[i, j]` bytes of `buf` from `starts[i, j]`. Coded columns
    are keyed on their bytes, so only distinct cells are decoded to `str`;
    numbers are float() and int() of each cell's bytes.
    """

    def __init__(self, buf: bytes, starts: np.ndarray, lens: np.ndarray):
        self.n = len(starts)
        self._buf, self._starts, self._lens = buf, starts, lens
        pad = -(-max(int(self._lens.max()), 1) // 8) * 8
        # the 8 bytes from each offset on as a little-endian word
        self._words = np.ndarray((len(buf) + pad - 7,), dtype="<u8", buffer=buf + bytes(pad), strides=(1,))

    @classmethod
    def parse(cls, buf: bytes, width: int) -> "_PlainBlock | None":
        """The block of `width` cells per line in `buf`; None if it is not plain."""
        if b'"' in buf or b"\0" in buf or not buf.isascii() and not _is_utf8(buf):
            return None
        arr = np.frombuffer(buf if buf.endswith(b"\n") else buf + b"\n", dtype=np.uint8)
        is_delim = arr == _COMMA
        is_delim |= arr == _LF
        delims = np.flatnonzero(is_delim)
        del is_delim
        is_lf = arr[delims] == _LF
        n = len(delims) // width
        if len(delims) != n * width or np.count_nonzero(is_lf) != n or not is_lf[width - 1 :: width].all():
            return None
        ends = delims.reshape(n, width)
        starts = np.empty_like(ends)
        starts[0, 0] = 0
        starts[1:, 0] = ends[:-1, -1] + 1
        starts[:, 1:] = ends[:, :-1] + 1
        last = ends[:, -1]
        crlf = (last > 0) & (arr[last - 1] == _CR)
        if np.count_nonzero(crlf) != np.count_nonzero(arr == _CR):  # a CR inside a line
            return None
        ends[:, -1] = last - crlf
        lens = np.subtract(ends, starts, out=ends)
        if lens.max() > csv.field_size_limit() or width == 1 and not lens.all():  # a blank line
            return None
        return cls(buf, starts, lens)

    def _cells(self, j: int) -> np.ndarray:
        """Column j's cells as a bytes array, NUL-padded to a multiple of 8 bytes."""
        starts, lens = self._starts[:, j, None], self._lens[:, j, None]
        at = 8 * np.arange(-(-max(int(lens.max()), 1) // 8))
        words = self._words[starts + at] & _LOW_BYTES[np.clip(lens - at, 0, 8)]
        return words.view(f"S{words.itemsize * len(at)}").ravel()

    def text(self, j: int) -> list[str]:
        return b",".join(self._cells(j).tolist()).decode().split(",")  # a cell holds no NUL to strip

    def text_at(self, j: int, rows: list[int]) -> list[str]:
        starts, lens = self._starts[rows, j].tolist(), self._lens[rows, j].tolist()
        return [self._buf[s : s + n].decode() for s, n in zip(starts, lens)]

    def distinct(self, j: int) -> tuple[list[str], np.ndarray]:
        cells = self._cells(j)
        keys = cells.view(np.uint64) if cells.itemsize == 8 else cells  # compared as one integer
        rows = np.argsort(keys, kind="stable")  # each cell's rows in order
        keys = keys[rows]
        head = np.empty(self.n, dtype=bool)
        head[0] = True
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
        first = rows[head]  # each distinct cell's first row
        rank = np.empty(len(first), dtype=np.int32)
        order = np.argsort(first)
        rank[order] = np.arange(len(first), dtype=np.int32)
        local = np.empty(self.n, dtype=np.int32)
        local[rows] = rank[np.cumsum(head) - 1]
        return self.text_at(j, first[order].tolist()), local

    # float() and int() of bytes take no Unicode digit or space that they take
    # in a str; on their ValueError the caller parses the column's text.
    def floats(self, j: int) -> np.ndarray:
        return self._cells(j).astype(np.float64)  # float() of each cell's bytes

    def ints(self, j: int) -> list[int]:
        return list(map(int, self._cells(j).tolist()))


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Every row of a CSV as a list of cells: UTF-8, header row, RFC 4180 quoting."""
    blocks = _csv_rows(path)
    header = next(blocks)
    return header, [row for block in blocks for row in block]


def load_roles(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            roles = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise SchemaError(f"{path}: role config is not valid JSON: {exc}") from None
    if not isinstance(roles, dict) or "user" not in roles or "columns" not in roles:
        raise SchemaError(f"{path}: role config must be a JSON object with 'user' and 'columns' entries")
    columns = roles["columns"]
    if not isinstance(roles["user"], str) or not isinstance(columns, dict) or not all(
            isinstance(v, str) for v in columns.values()):
        raise SchemaError(f"{path}: role config needs a string 'user' and 'columns' mapping "
                          f"column names to role strings")
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


def _schema_layout(header: list[str], schema: FeatureSchema) -> _Layout:
    """The user and timestamp columns, plus every encoded column."""
    coded = [schema.user_column, *(f.name for f in schema.categorical_fields)]
    coded += [schema.label_column] if schema.label_column else []
    layout = _Layout(schema.user_column, schema.timestamp_column, tuple(dict.fromkeys(coded)),
                     tuple(f.name for f in schema.continuous_fields))
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

    def _add(self, block: "_RowBlock | _PlainBlock") -> None:
        """Encode one block of rows."""
        if not block.n:
            return
        start, self.n_rows = self.n_rows, self.n_rows + block.n
        lay = self.layout
        for name in lay.coded:
            lookup = self._lookup[name]
            known = len(lookup)
            values, local = block.distinct(self._index[name])  # in first-appearance order
            codes = np.array([lookup.setdefault(v, len(lookup)) for v in values], dtype=np.int32)[local]
            self._parts[name].append(codes)
            if name == lay.user and lay.timestamp is not None and len(lookup) > known:
                new = np.flatnonzero(codes >= known)
                first = new[np.unique(codes[new], return_index=True)[1]]  # in code order
                self.first_stamps += block.text_at(self._index[lay.timestamp], first.tolist())
        for name in lay.continuous:
            j = self._index[name]
            try:  # no empty and no bad cell
                values, empty = block.floats(j), np.zeros(block.n, dtype=bool)
            except ValueError:
                col = block.text(j)
                values = np.array(_parse_cells(col, _float_cell, self.errors[name], start, np.nan))
                empty = np.array([v == "" for v in col], dtype=bool)
            self._parts[name].append(values)
            self._empty_parts[name].append(empty)
        if lay.timestamp is not None:
            self._add_stamps(block, self._index[lay.timestamp], start)

    def _add_stamps(self, block: "_RowBlock | _PlainBlock", j: int, start: int) -> None:
        if self.timestamp_format is None:  # a guess; infer_schema detects the real one
            try:
                self.timestamp_format = detect_timestamp_format(block.text_at(j, [0])[0])
            except SchemaError:
                self.timestamp_format = "epoch"
        fmt = self.timestamp_format
        try:  # int() strips whitespace as parse_timestamp does; only its messages differ
            stamps = block.ints(j) if fmt == "epoch" else list(map(parse_iso8601, block.text(j)))
        except ValueError:
            stamps = _parse_cells(block.text(j), lambda v: parse_timestamp(v, fmt), self.stamp_errors, start, 0)
        if min(stamps) < _TS_MIN or max(stamps) > _TS_MAX:  # before int64 could overflow
            for i, t in enumerate(stamps):
                try:
                    _require_supported(t)
                except SchemaError as exc:
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
        log._add(_RowBlock(rows[start : start + _ENCODE_BLOCK_ROWS]))
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
                 parsed: CsvColumns | None = None) -> FeatureSchema:
    """Build vocabularies and normalization stats from the (training) rows.

    `include_users` restricts the scan to a user subset so statistics never
    see validation/test rows. `parsed` is the log already read from
    `csv_path`: the CsvColumns of `read_columns(csv_path, roles=roles)`.
    Vocabularies keep first-appearance order among the training rows; mean
    and std run over their float64 cells in file order; the timestamp
    format is the first training row's.
    """
    log = read_columns(csv_path, roles=roles) if parsed is None else parsed
    columns = _validate_roles(log.header, roles)
    ts_col = log.layout.timestamp
    label_cols = [n for n, k in columns.items() if k == "label"]

    rows = log.rows_of(include_users)
    if not rows.size:
        raise SchemaError("no rows available for schema inference")
    ts_fmt = detect_timestamp_format(log.first_stamps[log.codes[log.layout.user][rows[0]]])
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

    `rows` is a CsvColumns log or a list of rows, which is encoded first;
    either way the result is a GroupedColumns. `users` keeps only those
    users' rows.
    """
    if not isinstance(rows, CsvColumns):
        rows = _columns_from_rows(header, rows, _schema_layout(header, schema), schema.timestamp_format)
    return _group(rows, schema, users)


# The only label cells accepted; any other encodes as -1 and is refused by the row checks.
_LABEL_CODES = {"": 0, "0": 0, "1": 1}


def _encode(schema: FeatureSchema, grouped: GroupedColumns, float_dtype):
    """Feature arrays of the grouped rows, in their order.

    Returns (cat, cont, comp, tfl, labels). Raises the first
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
        # a z-score beyond float_dtype encodes as inf, and _check_rows names its row
        with np.errstate(over="ignore"):
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
    return cat, cont, comp, tfl, labels


def _check_rows(schema: FeatureSchema, grouped: GroupedColumns, cont: np.ndarray,
                labels: np.ndarray | None) -> None:
    """All encoded rows at once: finite continuous values, labels 0, 1 or empty.

    The error names the first user, in grouped order, with a bad row: its
    first non-finite row if it has one, else its first bad label.
    """
    finite = np.isfinite(cont).all(axis=1)
    bad_value = None if finite.all() else int(np.argmin(finite))
    bad_label = None if labels is None or labels.min(initial=0) >= 0 else int(np.argmax(labels < 0))
    if bad_value is None and bad_label is None:
        return

    def user_of(row: int) -> int:
        return int(np.searchsorted(grouped.bounds, row, side="right")) - 1

    if bad_label is None or bad_value is not None and user_of(bad_value) <= user_of(bad_label):
        u, col = user_of(bad_value), int(np.argmin(np.isfinite(cont[bad_value])))
        raise SchemaError(
            f"user {grouped.users[u]!r}: non-finite value in continuous column "
            f"{schema.continuous_fields[col].name!r} at row {bad_value - grouped.bounds[u]} "
            f"of the user's time-ordered rows"
        )
    u, log, label = user_of(bad_label), grouped.log, schema.label_column
    value = log.values[label][log.codes[label][grouped.order[bad_label]]]
    raise SchemaError(
        f"user {grouped.users[u]!r}: label {value!r} in column {label!r} at row "
        f"{bad_label - grouped.bounds[u]} of the user's time-ordered rows is not 0, 1 or empty"
    )


def window_count(n_rows: int, window: int, stride: int) -> int:
    return max(0, (n_rows - window) // stride + 1)


def make_windows(schema: FeatureSchema, header: list[str], grouped: GroupedColumns,
                 window: int = 10, stride: int = 5, mode: str = "pretrain",
                 float_dtype=np.float32) -> Windows:
    """Slide fixed-length windows over each user's rows.

    `grouped` is what `group_rows_by_user` returns; `header` is not read
    again, as the grouped log carries its own. Windows start at offsets 0,
    stride, 2*stride, ...; incomplete tails are dropped. Pretrain mode
    strips labels entirely; downstream mode labels a window 1 iff any of
    its rows is labeled 1. All users' rows are encoded and checked
    together, and the windows are their start rows in the encoded,
    read-only row arrays.
    """
    if mode not in ("pretrain", "downstream"):
        raise ContractError(f"unknown windowing mode {mode!r}")
    if window < 1 or stride < 1:
        raise ContractError(f"window and stride must be >= 1, got {window}/{stride}")
    if mode == "downstream" and schema.label_column is None:
        raise ContractError("downstream windowing needs a label column")
    if not isinstance(grouped, GroupedColumns):
        raise ContractError(f"make_windows takes the GroupedColumns of group_rows_by_user, "
                            f"got {type(grouped).__name__}")
    cat, cont, comp, tfl, labels = _encode(schema, grouped, float_dtype)
    for features in (cat, cont, comp, tfl):
        features.flags.writeable = False  # overlapping windows share rows
    _check_rows(schema, grouped, cont, labels)
    per_user = [np.arange(lo, hi - window + 1, stride, dtype=np.int64) for _, lo, hi in grouped.spans()]
    starts = np.concatenate([np.zeros(0, dtype=np.int64), *per_user])
    window_labels = None
    if mode == "downstream":  # any labeled row in the window, from a running count
        seen = np.concatenate(([0], np.cumsum(labels != 0)))
        window_labels = (seen[starts + window] > seen[starts]).astype(np.int64)
    # copies, not the parsed cells: one live cell keeps the allocator arena of the
    # parsed rows around it (about a megabyte) from being returned once they are freed
    names = [user.encode().decode() for user in grouped.users]
    user_codes = np.repeat(np.arange(len(names), dtype=np.int64), [len(s) for s in per_user])
    return Windows(cat, cont, comp, tfl, starts, window, window_labels, user_codes, names)


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
