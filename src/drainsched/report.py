"""Run reports: per-flow statistics, the per-review period log, JSON export.

A run keeps one PeriodRecord of optimizer diagnostics per review. Its fields
are the only declaration of the review row: the PeriodLog's columns, the row
the engine hands to PeriodLog.add, append, record and the JSON writer's row
are derived from them, so a new column needs only its field and its value in
the engine's add call. The log holds the rows column by column: one array per
int or float field, every objective trace in one flat column of stride
`cycles`, and one theta column per flow id, ~150 bytes per mesh10 review.
MetricsReport.periods is a read-only Periods view of a log's first n rows, so
a report taken mid-run stays a snapshot; it builds a PeriodRecord only when
one is read.

MetricsReport.write_json streams the report to a text file, one write per
review and per scalar item of the other sections. Its bytes equal those of
json.dump(report.to_dict(), fh, sort_keys=True, indent=1) plus a newline,
without building to_dict's copy.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, fields
from itertools import islice
from json.encoder import encode_basestring_ascii


@dataclass
class FlowMetrics:
    """Destination-side statistics of one flow.

    The engine accumulates created, delivered, late, delay_sum and the delay
    histogram into one live record per flow; on_time, mean_delay and
    drop_ratio are filled in the snapshots Simulation.report() returns.
    """

    created: int = 0
    delivered: int = 0
    on_time: int = 0
    late: int = 0
    delay_sum: int = 0
    mean_delay: float | None = None
    drop_ratio: float | None = None
    histogram: dict[int, int] = field(default_factory=dict)


@dataclass
class PeriodRecord:
    """The optimizer diagnostics of one review, a row of the period log. An int
    or float field has an int64 or float64 column; a field that defaults to
    None is not stored, so it must be None, and is written as null."""

    start: int
    window: int
    objective: float
    objective_trace: tuple[float, ...]
    c2: float
    c3: float
    handoff_messages: int
    excess_broadcasts: int
    theta: dict[int, float]
    oracle_gap: float | None = None  # exact LP gap; no engine path fills it yet


# A field that defaults to None is not stored; each other field has a column.
_UNSTORED = tuple(f.name for f in fields(PeriodRecord) if f.default is None)
_STORED = {f.name for f in fields(PeriodRecord)} - {*_UNSTORED}
# The column typecode of each int and float field (annotations are text here).
_SCALARS = {f.name: {"int": "q", "float": "d"}[f.type] for f in fields(PeriodRecord)
            if f.name in _STORED and f.name not in ("objective_trace", "theta")}
MAX_WINDOW = 2**63 - 1  # the longest review window the int64 ("q") column holds


class PeriodLog:
    """Append-only columnar store of PeriodRecords.

    Every record's objective_trace has `stride` values and its theta the keys
    flow_ids. A row that breaks one of these rules, misses a field, has one
    PeriodRecord lacks or sets one the log does not store, or whose values do
    not fit their columns, raises ValueError naming the field, and the log is
    left unchanged.
    """

    def __init__(self, stride: int, flow_ids: Iterable[int]):
        self.stride = stride
        self.columns = {name: array(code) for name, code in _SCALARS.items()}
        self.trace = array("d")
        self.theta = {fid: array("d") for fid in flow_ids}
        self._n = 0

    @classmethod
    def of(cls, records: Iterable[PeriodRecord]) -> "PeriodLog":
        """A log of records, its stride and flow ids taken from the first."""
        log = None
        for rec in records:
            if log is None:
                log = cls(len(rec.objective_trace), rec.theta)
            log.append(rec)
        return log if log is not None else cls(0, ())

    def __len__(self) -> int:
        return self._n

    def append(self, rec: PeriodRecord) -> None:
        self.add(**vars(rec))

    def add(self, **row) -> None:
        """Append the row of PeriodRecord(**row) without building the record
        (the engine's call per review)."""
        for name in _UNSTORED:
            value = row.pop(name, None)
            if value is not None:
                raise ValueError(f"{name}: not stored, so it must be None, got {value!r}")
        if row.keys() != _STORED:
            name = min(row.keys() ^ _STORED)
            raise ValueError(f"{name}: " + ("no such field" if name in row else "missing"))
        trace, theta = row["objective_trace"], row["theta"]
        if len(trace) != self.stride:
            raise ValueError(f"objective_trace: {len(trace)} values, the log's stride is "
                             f"{self.stride}")
        if theta.keys() != self.theta.keys():
            raise ValueError(f"theta: flow ids {sorted(theta)}, the log's are {sorted(self.theta)}")
        n = self._n
        try:
            for name, col in self.columns.items():
                col.append(row[name])
            name = "objective_trace"
            self.trace.extend(trace)
            name = "theta"
            for fid, col in self.theta.items():
                col.append(theta[fid])
        except (TypeError, OverflowError) as exc:
            for col in (*self.columns.values(), *self.theta.values()):
                del col[n:]
            del self.trace[n * self.stride:]
            raise ValueError(f"{name}: {exc}") from None
        self._n = n + 1

    def same_rows(self, other: "PeriodLog", n: int) -> bool:
        """Whether the first n rows of the two logs hold equal records, two
        NaNs in the same cell counting as equal."""
        if not n:
            return True
        if self.stride != other.stride or self.theta.keys() != other.theta.keys():
            return False
        k = n * self.stride
        return (
            all(_same(col[:n], other.columns[name][:n]) for name, col in self.columns.items())
            and _same(self.trace[:k], other.trace[:k])
            and all(_same(col[:n], other.theta[fid][:n]) for fid, col in self.theta.items())
        )

    def record(self, i: int) -> PeriodRecord:
        k = self.stride
        return PeriodRecord(
            **{name: col[i] for name, col in self.columns.items()},
            objective_trace=tuple(self.trace[i * k:i * k + k]),
            theta={fid: col[i] for fid, col in self.theta.items()},
        )


def _same(a: array, b: array) -> bool:
    """Equal columns, two NaNs in the same cell counting as equal."""
    return a == b or (
        len(a) == len(b) and all(x == y or (x != x and y != y) for x, y in zip(a, b))
    )


class Periods(Sequence):
    """Read-only view of the rows a PeriodLog holds when the view is made, as
    a sequence of PeriodRecords.

    Rows appended to the log later are not part of it. It equals any sequence
    of equal PeriodRecords in the same order, a list included; equality
    compares the columns, so a NaN field equals a NaN in the same place.
    """

    __slots__ = ("_log", "_n")

    def __init__(self, log: PeriodLog):
        self._log = log
        self._n = len(log)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._log.record(i) for i in range(*index.indices(self._n))]
        i = operator.index(index)
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("period index out of range")
        return self._log.record(i)

    def __iter__(self) -> Iterator[PeriodRecord]:
        return map(self._log.record, range(self._n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        if not isinstance(other, Periods):
            try:
                other = Periods(PeriodLog.of(other))
            except (AttributeError, TypeError, ValueError):  # not records a log can hold
                return False
        return self._n == other._n and self._log.same_rows(other._log, self._n)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Periods(<{self._n} records>)"

    def column(self, name: str) -> array:
        """The values of one scalar field (a key of PeriodLog.columns), in order."""
        return self._log.columns[name][:self._n]

    def write_json(self, write, level: int) -> None:
        """Write the view as json.dump(sort_keys=True, indent=1) writes the
        list of its records' to_dict forms at nesting depth level, one write
        per record. Record keys and theta's flow ids are sorted as text."""
        n = self._n
        if not n:
            write("[]")
            return
        log = self._log
        trace, k = log.trace, log.stride
        thetas = [
            (encode_basestring_ascii(key), col)
            for key, col in sorted((str(fid), col) for fid, col in log.theta.items())
        ]
        p1 = "\n" + " " * (level + 1)  # a record
        p2 = p1 + " "  # a record's keys
        p3 = p2 + " "  # trace values and theta items
        sep3 = "," + p3

        def trace_text(i):
            return f"[{p3}{sep3.join(map(float_text, trace[i * k:i * k + k]))}{p2}]" if k else "[]"

        def theta_text(i):
            items = sep3.join(f"{key}: {float_text(col[i])}" for key, col in thetas)
            return f"{{{p3}{items}{p2}}}" if thetas else "{}"

        # The texts of each stored field, row by row; an unstored one is null.
        cells = {"objective_trace": map(trace_text, range(n)), "theta": map(theta_text, range(n))}
        for name, col in log.columns.items():
            cells[name] = islice(col, n) if col.typecode == "q" else map(float_text, islice(col, n))
        names = sorted(f.name for f in fields(PeriodRecord))
        row = "{{" + ",".join(
            f"{p2}{encode_basestring_ascii(name)}: "
            + ("{}" if name in cells else _scalar_text(None))
            for name in names
        ) + p1 + "}}"
        sep = "[" + p1
        for texts in zip(*[cells[name] for name in names if name in cells]):
            write(sep + row.format(*texts))
            sep = "," + p1
        write(p1[:-1] + "]")


@dataclass
class MetricsReport:
    seed: int
    horizon: int
    flows: dict[int, FlowMetrics]
    queue_avg: dict[tuple[int, int], float]
    periods: Sequence[PeriodRecord]  # a Periods view; any other iterable is logged into one
    conservation_violations: int = 0
    interference_violations: int = 0

    def __post_init__(self):
        if not isinstance(self.periods, Periods):
            self.periods = Periods(PeriodLog.of(self.periods))

    def to_dict(self) -> dict:
        # JSON object keys are strings; converting the int keys here keeps
        # json.dump(sort_keys=True) ordering them as text.
        return {
            **vars(self),
            "flows": {
                str(fid): {**vars(fm), "histogram": _str_keys(fm.histogram)}
                for fid, fm in self.flows.items()
            },
            "queue_avg": {f"{i}:{f}": v for (i, f), v in self.queue_avg.items()},
            "periods": [{**vars(p), "theta": _str_keys(p.theta)} for p in self.periods],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsReport":
        return cls(**{
            **data,
            "flows": {
                int(fid): FlowMetrics(**{**fm, "histogram": _int_keys(fm["histogram"])})
                for fid, fm in data["flows"].items()
            },
            "queue_avg": {
                tuple(int(x) for x in key.split(":")): v for key, v in data["queue_avg"].items()
            },
            "periods": (
                PeriodRecord(**{
                    **p,
                    "objective_trace": tuple(p["objective_trace"]),
                    "theta": _int_keys(p["theta"]),
                })
                for p in data["periods"]
            ),
        })

    def write_json(self, fh) -> None:
        """Write the report to the text file fh: the bytes of
        json.dump(self.to_dict(), fh, sort_keys=True, indent=1) and a newline.

        It reads the flows and the period log in place; the only copies are
        the top-level object and the queue averages under their text keys.
        """
        top = {
            **vars(self),
            "flows": {fid: vars(fm) for fid, fm in self.flows.items()},
            "queue_avg": {f"{i}:{f}": v for (i, f), v in self.queue_avg.items()},
        }
        _write_value(fh.write, top, 0)
        fh.write("\n")


def _str_keys(d: dict) -> dict:
    return {str(k): v for k, v in d.items()}


def _int_keys(d: dict) -> dict:
    return {int(k): v for k, v in d.items()}


_FLOAT_SPELLINGS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def float_text(x: float) -> str:
    """x as json writes a float: float.__repr__, with NaN and ±Infinity."""
    text = float.__repr__(x)
    return _FLOAT_SPELLINGS.get(text, text)


def _write_value(write, value, level: int) -> None:
    """Write value, a scalar, a dict or a Periods view, as
    json.dump(sort_keys=True, indent=1) writes it at nesting depth level: one
    write per scalar item, a Periods view one per record.

    Dict keys are written as str(key) and sorted as text, as to_dict's string
    keys are. A value of another type raises TypeError, as json does.
    """
    if isinstance(value, Periods):
        value.write_json(write, level)
        return
    if not isinstance(value, dict):
        write(_scalar_text(value))
        return
    if not value:
        write("{}")
        return
    pad = "\n" + " " * (level + 1)
    sep = "{" + pad
    for key, item in sorted((str(key), item) for key, item in value.items()):
        key = encode_basestring_ascii(key) + ": "
        if isinstance(item, (dict, Periods)):
            write(sep + key)
            _write_value(write, item, level + 1)
        else:
            write(sep + key + _scalar_text(item))
        sep = "," + pad
    write(pad[:-1] + "}")


def _scalar_text(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float_text(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
