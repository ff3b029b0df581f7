"""Collections of short time series: containers, ingestion and preprocessing.

The data unit throughout the package is a collection of short series that are
assumed to share one stationary dynamics. The sufficient statistics for the
likelihood are the per-series consecutive transitions (x, dx, dt), which never
cross series boundaries.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, IngestError, PreconditionError

__all__ = [
    "TimeSeries",
    "TimeSeriesCollection",
    "TransitionSet",
    "to_transitions",
    "characteristic_timescale",
    "filter_by_timestep",
    "clr_transform",
    "apply_pseudocount",
    "read_observations_csv",
    "write_observations_csv",
]


def _as_readonly(a) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    out = out.copy()
    out.flags.writeable = False
    return out


def _arrays_equal(a, b, names) -> bool:
    """Whether `a` and `b` hold equal arrays under each attribute name.

    The array dataclasses below define `__eq__` with it, because the generated
    one compares arrays elementwise and raises on more than one element. Their
    generated `__hash__` still raises TypeError: arrays are unhashable.
    """
    return all(np.array_equal(getattr(a, n), getattr(b, n)) for n in names)


@dataclass(frozen=True)
class TimeSeries:
    """One sampling unit's observations: strictly increasing times, >= 2 points."""

    unit_id: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", _as_readonly(self.times))
        object.__setattr__(self, "values", _as_readonly(self.values))
        if self.times.ndim != 1 or self.values.ndim != 1:
            raise IngestError(f"series {self.unit_id!r}: times and values must be 1-D")
        if len(self.times) != len(self.values):
            raise IngestError(f"series {self.unit_id!r}: length mismatch")
        if len(self.times) < 2:
            raise IngestError(f"series {self.unit_id!r}: needs at least 2 points")
        if not np.all(np.isfinite(self.times)) or not np.all(np.isfinite(self.values)):
            raise IngestError(f"series {self.unit_id!r}: non-finite entries")
        if np.any(np.diff(self.times) <= 0):
            raise IngestError(f"series {self.unit_id!r}: times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    def __eq__(self, other):
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return self.unit_id == other.unit_id and _arrays_equal(self, other, ("times", "values"))


@dataclass(frozen=True)
class TimeSeriesCollection:
    """Non-empty set of series sharing one (assumed) stationary dynamics."""

    series: tuple[TimeSeries, ...]
    value_range: tuple[float, float] = field(init=False)

    def __post_init__(self):
        series = tuple(self.series)
        if not series:
            raise IngestError("collection must contain at least one series")
        object.__setattr__(self, "series", series)
        lo = min(float(s.values.min()) for s in series)
        hi = max(float(s.values.max()) for s in series)
        object.__setattr__(self, "value_range", (lo, hi))

    @property
    def n_points(self) -> int:
        return sum(len(s) for s in self.series)

    def all_values(self) -> np.ndarray:
        return np.concatenate([s.values for s in self.series])


@dataclass(frozen=True)
class TransitionSet:
    """Flattened (x, dx, dt) triples; the likelihood's sufficient data.

    Three read-only float arrays of one length, in series-then-time order:
    the state x, its increment dx over dt. Every entry is finite and every dt
    positive (a dx can overflow to inf even when both values are finite).
    """

    x: np.ndarray
    dx: np.ndarray
    dt: np.ndarray

    def __post_init__(self):
        for name in ("x", "dx", "dt"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))
        if not (self.x.ndim == 1 and self.x.shape == self.dx.shape == self.dt.shape):
            raise PreconditionError("transition x, dx and dt must be 1-D of one length")
        if not np.all(np.isfinite(self.x) & np.isfinite(self.dx) & np.isfinite(self.dt)):
            raise PreconditionError("transition fields must be finite")
        if np.any(self.dt <= 0):
            raise PreconditionError("transition dt must be positive")

    def __len__(self) -> int:
        return len(self.x)

    def __eq__(self, other):
        if not isinstance(other, TransitionSet):
            return NotImplemented
        return _arrays_equal(self, other, ("x", "dx", "dt"))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (x, dx, dt), in stable series-then-time order."""
        return self.x, self.dx, self.dt


def to_transitions(c: TimeSeriesCollection) -> TransitionSet:
    """Difference each series into (x, dx, dt) triples.

    One transition per consecutive pair within a series; nothing crosses a
    series boundary. Ordering is stable: series order, then time order.
    """
    return TransitionSet(
        np.concatenate([s.values[:-1] for s in c.series]),
        np.concatenate([np.diff(s.values) for s in c.series]),
        np.concatenate([np.diff(s.times) for s in c.series]),
    )


def characteristic_timescale(c: TimeSeriesCollection) -> float:
    """t_c, the apparent time to traverse the observed range by fluctuations.

    t_c = d^2 / <dx^2/dt>, with d the full observed value range and the mean
    taken over all transitions. Undefined (degenerate) when every dx is zero.
    """
    x, dx, dt = to_transitions(c).arrays()
    if len(x) == 0:
        raise PreconditionError("collection yields no transitions")
    mean_sq_rate = float(np.mean(dx * dx / dt))
    if mean_sq_rate == 0.0:
        raise DegenerateDataError("all increments are zero; t_c is undefined")
    d = float(c.value_range[1] - c.value_range[0])
    return d * d / mean_sq_rate


def filter_by_timestep(c: TimeSeriesCollection, max_dt: float) -> TimeSeriesCollection:
    """Split series at any gap exceeding max_dt and drop fragments shorter than 2.

    A series that splits gets fragment-indexed ids ("unit#0", "unit#1", ...);
    an unsplit series keeps its id, which makes the operation idempotent.
    """
    if not 0 < max_dt < np.inf:
        raise PreconditionError(f"max_dt must be finite and positive, got {max_dt}")
    kept = []
    for s in c.series:
        gaps = np.diff(s.times)
        cut = np.flatnonzero(gaps > max_dt) + 1
        pieces = np.split(np.arange(len(s)), cut)
        frags = [idx for idx in pieces if len(idx) >= 2]
        split = len(pieces) > 1
        for k, idx in enumerate(frags):
            uid = f"{s.unit_id}#{k}" if split else s.unit_id
            kept.append(TimeSeries(uid, s.times[idx], s.values[idx]))
    if not kept:
        raise DegenerateDataError(f"no fragments of length >= 2 survive max_dt={max_dt}")
    return TimeSeriesCollection(tuple(kept))


def apply_pseudocount(m) -> np.ndarray:
    """Replace zeros in an abundance matrix before a log-ratio transform.

    Each zero becomes half the smallest strictly positive entry of the whole
    matrix.
    """
    m = np.asarray(m, dtype=float)
    if np.any(m < 0):
        raise PreconditionError("abundance matrix must be non-negative")
    positive = m[m > 0]
    if positive.size == 0:
        raise DegenerateDataError("abundance matrix has no positive entries")
    out = m.copy()
    out[out == 0] = 0.5 * positive.min()
    return out


def clr_transform(m) -> np.ndarray:
    """Centred log-ratio transform, row-wise: log(r_i) - mean_j log(r_j).

    Rows are samples. Entries must be strictly positive (apply a pseudocount
    upstream); every output row sums to zero.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if np.any(m <= 0) or not np.all(np.isfinite(m)):
        raise PreconditionError("clr_transform requires strictly positive finite entries")
    logs = np.log(m)
    return logs - logs.mean(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Ingestion / serialization
# ---------------------------------------------------------------------------

CSV_HEADER = ("unit_id", "time", "value")


def read_observations_csv(path, column: str = "value", clr: bool = False) -> TimeSeriesCollection:
    """Read one variable, `column`, of an observation CSV: header
    unit_id,time,<variables...>, one row per observation. The long layout
    unit_id,time,value is the file whose one variable is the default `column`.
    With `clr`, each row first gets a pseudocount and a centred log-ratio
    transform.

    Rows are grouped by unit_id in order of first appearance and sorted by
    time. A unit with fewer than two points has no transition and is dropped.
    Every refusal names the file, and the line where there is one. It is a
    DegenerateDataError if no unit is left or, with `clr`, no abundance is
    positive; otherwise an IngestError: a header that is not as above or names
    a variable twice, a missing `column`, no data rows, a row without one cell
    per header column, a time or used cell (the column's, or with `clr` any
    variable's) that is not finite or, with `clr`, negative, and a repeated
    (unit_id, time) pair.
    """
    header, lines = _csv_lines(path)
    names = [h.strip() for h in header[2:]]
    if [h.strip() for h in header[:2]] != ["unit_id", "time"] or not names:
        raise IngestError(f"{path}: line 1: expected header unit_id,time,<variables...>")
    twice = next((name for i, name in enumerate(names) if name in names[:i]), None)
    if twice is not None:
        raise IngestError(f"{path}: line 1: variable {twice!r} is named more than once")
    if column not in names:
        raise IngestError(f"{path}: line 1: column {column!r} not present")
    if not lines:
        raise IngestError(f"{path}: no data rows after the header")
    used = range(len(names)) if clr else [names.index(column)]
    units: dict[str, dict[float, int]] = {}  # unit_id -> {time: its row's index}
    rows = []
    for lineno, row in lines:
        if len(row) != len(header):
            raise IngestError(f"{path}: line {lineno}: expected {len(header)} columns, "
                              f"got {len(row)}")
        try:
            t = float(row[1])
            rows.append([float(v) for v in row[2:]])
        except ValueError as exc:
            raise IngestError(f"{path}: line {lineno}: {exc}") from None
        if not math.isfinite(t):
            raise IngestError(f"{path}: line {lineno}: time is {t}, not finite")
        for j in used:
            v = rows[-1][j]
            problem = "not finite" if not math.isfinite(v) else "negative" if clr and v < 0 else ""
            if problem:
                raise IngestError(f"{path}: line {lineno}: {names[j]} is {v}, {problem}")
        uid = row[0].strip()
        unit = units.setdefault(uid, {})
        if t in unit:
            raise IngestError(f"{path}: line {lineno}: duplicate (unit_id, time) pair "
                              f"for unit {uid!r}")
        unit[t] = len(rows) - 1
    matrix = np.asarray(rows, dtype=float)
    if clr:
        try:
            matrix = clr_transform(apply_pseudocount(matrix))
        except DegenerateDataError as exc:  # every abundance is zero
            raise DegenerateDataError(f"{path}: {exc}") from None
    values = matrix[:, names.index(column)]
    series = []
    for uid, unit in units.items():
        times = sorted(unit)
        if len(times) >= 2:
            series.append(TimeSeries(uid, times, values[[unit[t] for t in times]]))
    if not series:
        raise DegenerateDataError(f"{path}: no unit has two or more points")
    return TimeSeriesCollection(tuple(series))


def _csv_lines(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header row of a CSV file, and its other non-blank rows, each with its
    line number; IngestError for an empty file, and naming the line, for text
    that is not UTF-8 (such as a Latin-1 export) or a field past the csv
    module's size limit. A leading UTF-8 byte-order mark, as spreadsheet
    exports write, is skipped."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        reader = csv.reader(io.StringIO(data.decode("utf-8-sig"), newline=""))
        lines = [(reader.line_num, row) for row in reader]
    except UnicodeDecodeError as exc:
        # The codec decodes the bytes after a byte-order mark: exc.object.
        start = exc.start + len(data) - len(exc.object)
        lineno = data.count(b"\n", 0, start) + 1
        exc = UnicodeDecodeError(exc.encoding, data, start, start + exc.end - exc.start,
                                 exc.reason)
        raise IngestError(f"{path}: line {lineno}: {exc}") from None
    except csv.Error as exc:
        raise IngestError(f"{path}: line {reader.line_num}: {exc}") from None
    if not lines:
        raise IngestError(f"{path}: empty file")
    return lines[0][1], [(n, row) for n, row in lines[1:]
                         if len(row) > 1 or (row and row[0].strip())]


def write_observations_csv(c: TimeSeriesCollection, path) -> None:
    """Write a collection in the one-row-per-observation CSV format."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for s in c.series:
            for t, v in zip(s.times, s.values):
                writer.writerow([s.unit_id, repr(float(t)), repr(float(v))])


def dump_json(doc, path) -> None:
    """Write a JSON document with a stable key order (byte-reproducible).

    A NaN or infinite float raises ValueError before the file is opened,
    rather than being written as a token that is not JSON.
    """
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise IngestError(f"{path}: not a JSON document: {exc}") from None


def read_document(doc, converters: dict, what: str, required=(), hint=None) -> dict:
    """The keys present in the JSON object `doc`, each value passed through its
    converter, which raises TypeError (IngestError for a nested document) for
    a value it refuses. That, a key without a converter, a missing key of
    `required` or a `doc` that is not an object is an IngestError naming
    `what`: neither a misspelt key nor a wrong-typed value falls back to a
    default. The error for an unknown or missing key ends with `hint`, if
    given."""
    if not isinstance(doc, dict):
        raise IngestError(f"{what} must be a JSON object, not {type(doc).__name__}")
    unknown = sorted(set(doc) - set(converters))
    missing = [key for key in required if key not in doc]
    if unknown or missing:
        keys = [f"{name} keys {found}" for name, found in (("unknown", unknown),
                                                          ("missing", missing)) if found]
        raise IngestError(f"{what}: {', '.join(keys)}; it takes {', '.join(converters)}"
                          + (f"; {hint}" if hint else ""))
    out = {}
    for key, value in doc.items():
        try:
            out[key] = converters[key](value)
        except (TypeError, IngestError) as exc:
            raise IngestError(f"{what}: {key}: {exc}") from None
    return out


def _converter(types, expected: str, cast=lambda v: v):
    # JSON true/false load as bool, a subclass of int: no converter takes them.
    def convert(value):
        if isinstance(value, types) and not isinstance(value, bool):
            return cast(value)
        raise TypeError(f"expected {expected}, got {value!r}")
    return convert


def _finite(value) -> float:
    # json.load reads NaN and Infinity tokens, and integers past the float range.
    if abs(value) <= sys.float_info.max:
        return float(value)
    raise TypeError(f"expected a finite number, got {value!r}")


integer = _converter(int, "an integer")
number = _converter((int, float), "a number", _finite)
text = _converter(str, "a string")


def list_of(convert):
    """A converter for a JSON array whose items `convert` accepts."""
    return _converter(list, "a list", lambda items: [convert(v) for v in items])
