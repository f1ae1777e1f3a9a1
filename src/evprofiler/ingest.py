"""Charging-session corpus loading and admission filters.

``iter_sessions`` is the one parser: it reads a session file record by
record and yields each session as it is parsed, so a caller holds one record
plus the session ids at a time. ``parse_sessions`` collects it into a
``Corpus``. The admission rules (``admissible`` per session, ``kept_labels``
per EV) serve both ``apply_primary_filters`` on a whole corpus and the
streamed ``ingest`` command. Two on-disk formats are supported:

* ``acn-json`` — newline-delimited JSON, one object per session:
  ``{"sessionID": str, "userID": str|null, "stationID": str,
  "connectionTime": str, "samplePeriodSec": number,
  "pilotSignal": [...], "chargingCurrent": [...]}``
* ``csv`` — header ``sessionID,userID,stationID,connectionTime,
  samplePeriodSec,pilotSignal,chargingCurrent`` with the two series as
  ``;``-joined decimal lists.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

FORMATS = ("acn-json", "csv")
CSV_HEADER = ["sessionID", "userID", "stationID", "connectionTime",
              "samplePeriodSec", "pilotSignal", "chargingCurrent"]


class ParseError(ValueError):
    """Unreadable or structurally invalid input; carries the record index."""


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """An evenly sampled real-valued signal (amperes for pilot/current)."""

    values: np.ndarray
    sample_period: float = 1.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("time series must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(values)):
            raise ValueError("time series values must all be finite")
        if not self.sample_period > 0:
            raise ValueError("sample_period must be positive")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class ChargingSession:
    """One charging event: pilot and current series plus an optional EV label."""

    session_id: str
    ev_label: Optional[str]
    station_id: str
    connect_time: str
    pilot: TimeSeries
    current: TimeSeries

    def __post_init__(self):
        if len(self.pilot) != len(self.current):
            raise ValueError("pilot and current must have equal length")
        if self.pilot.sample_period != self.current.sample_period:
            raise ValueError("pilot and current must share a sample period")
        if np.any(self.current.values < 0):
            raise ValueError("current must be non-negative after ingestion")


@dataclass(frozen=True)
class Provenance:
    """What ingestion dropped or repaired on the way in."""

    dropped_missing_field: int = 0
    truncated_mismatched: int = 0
    clamped_negative: int = 0


def _check_unique_ids(counts: Counter) -> None:
    """Duplicate session ids are fatal: given each id's count, raise a
    ParseError listing the first five duplicated ids in sorted order."""
    dup = sorted(i for i, n in counts.items() if n > 1)
    if dup:
        raise ParseError(f"duplicate session_id(s): {dup[:5]}")


@dataclass(frozen=True)
class Corpus:
    sessions: tuple[ChargingSession, ...]
    provenance: Provenance = field(default_factory=Provenance)

    def __post_init__(self):
        sessions = tuple(self.sessions)
        _check_unique_ids(Counter(s.session_id for s in sessions))
        object.__setattr__(self, "sessions", sessions)

    def __len__(self) -> int:
        return len(self.sessions)

    def __iter__(self) -> Iterator[ChargingSession]:
        return iter(self.sessions)


def _parse_float_list(raw, where: str) -> np.ndarray:
    """One float64 array from a list of numbers or numeric strings, each
    converted as ``float`` converts it; anything else is a ParseError."""
    # fromiter would take a string's characters or an object's keys
    if not isinstance(raw, list):
        raise ParseError(f"{where}: bad numeric list (a {type(raw).__name__}, "
                         "not a JSON array)")
    try:
        arr = np.fromiter(raw, np.float64, count=len(raw))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: bad numeric list ({exc})") from exc
    # fromiter reads a null (None) as NaN where float() refuses it
    if not np.isfinite(arr).all() and any(v is None for v in raw):
        raise ParseError(f"{where}: bad numeric list (null value)")
    return arr


def _session_from_record(rec: dict, where: str, stats: dict) -> Optional[ChargingSession]:
    sid = rec.get("sessionID")
    pilot_raw = rec.get("pilotSignal")
    current_raw = rec.get("chargingCurrent")
    if not sid or pilot_raw is None or current_raw is None:
        stats["dropped_missing_field"] += 1
        return None
    pilot = _parse_float_list(pilot_raw, where)
    current = _parse_float_list(current_raw, where)
    if pilot.size == 0 or current.size == 0:
        stats["dropped_missing_field"] += 1
        return None
    if pilot.size != current.size:
        n = min(pilot.size, current.size)
        pilot, current = pilot[:n], current[:n]
        stats["truncated_mismatched"] += 1
    negatives = current < 0
    if negatives.any():
        current = np.where(negatives, 0.0, current)
        stats["clamped_negative"] += int(negatives.sum())
    try:
        period = float(rec.get("samplePeriodSec", 1.0))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: bad samplePeriodSec") from exc
    label = rec.get("userID")
    return ChargingSession(
        session_id=str(sid),
        ev_label=str(label) if label not in (None, "") else None,
        station_id=str(rec.get("stationID", "")),
        connect_time=str(rec.get("connectionTime", "")),
        pilot=TimeSeries(pilot, period),
        current=TimeSeries(current, period),
    )


def _records_from_json(lines: Iterable[str]) -> Iterable[tuple[str, dict]]:
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(rec, dict):
            raise ParseError(f"line {lineno}: expected a JSON object")
        yield f"line {lineno}", rec


def _records_from_csv(lines: Iterable[str]) -> Iterable[tuple[str, dict]]:
    reader = csv.DictReader(lines)
    if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != CSV_HEADER:
        raise ParseError(f"csv header must be {','.join(CSV_HEADER)}")
    for rowno, row in enumerate(reader, start=2):
        rec = dict(row)
        for key in ("pilotSignal", "chargingCurrent"):
            raw = rec.get(key)
            rec[key] = [v for v in (raw or "").split(";") if v != ""] if raw is not None else None
        if rec.get("userID") == "":
            rec["userID"] = None
        yield f"row {rowno}", rec


def undecodable(path, exc: UnicodeDecodeError) -> ParseError:
    """The error for a file whose bytes are not UTF-8 text. Decoding runs a
    buffer ahead of the records, so the message names the file, not a line."""
    return ParseError(f"{path}: not UTF-8 text ({exc.reason})")


def iter_sessions(path, fmt: str, stats: Counter) -> Iterator[ChargingSession]:
    """The sessions of the file at ``path`` in file order, parsed one record
    at a time as the iterator is advanced.

    Records missing the session id, pilot, or current series are dropped;
    mismatched pilot/current lengths are truncated to the shorter series;
    negative current samples are clamped to zero. Each repair adds to its
    ``Provenance`` field name in ``stats``. A record that cannot be parsed
    is a ParseError naming the file and the record's line or row. Duplicate
    session ids are fatal: the ParseError comes after the last record, so a
    consumer that writes as it reads publishes its output only once the
    iterator is exhausted. An unknown format, like a missing file, fails on
    the first read.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    ids: Counter = Counter()
    # csv reads its own line endings; JSON lines use universal newlines
    with open(path, "r", encoding="utf-8", newline="" if fmt == "csv" else None) as fh:
        records = _records_from_json(fh) if fmt == "acn-json" else _records_from_csv(fh)
        try:
            for where, rec in records:
                session = _session_from_record(rec, where, stats)
                if session is not None:
                    ids[session.session_id] += 1
                    yield session
        except UnicodeDecodeError as exc:
            raise undecodable(path, exc) from exc
        except ParseError as exc:  # names its line or row
            raise ParseError(f"{path}: {exc}") from exc
    _check_unique_ids(ids)


def parse_sessions(path, fmt: str) -> Corpus:
    """Every session of the file at ``path`` (see ``iter_sessions``), with
    the counts of what parsing dropped or repaired."""
    stats: Counter = Counter()
    sessions = tuple(iter_sessions(path, fmt, stats))
    return Corpus(sessions, Provenance(**stats))


def _session_record(s: ChargingSession) -> dict:
    return {
        "sessionID": s.session_id,
        "userID": s.ev_label,
        "stationID": s.station_id,
        "connectionTime": s.connect_time,
        "samplePeriodSec": s.pilot.sample_period,
        "pilotSignal": s.pilot.values.tolist(),
        "chargingCurrent": s.current.values.tolist(),
    }


def session_line(s: ChargingSession) -> str:
    """The canonical ``acn-json`` line of a session."""
    return json.dumps(_session_record(s)) + "\n"


def write_sessions(corpus: Corpus, path: str, fmt: str = "acn-json") -> None:
    """Serialize a corpus; floats use repr so a round-trip is bit-exact."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "acn-json":
            for s in corpus.sessions:
                fh.write(session_line(s))
        else:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for s in corpus.sessions:
                rec = _session_record(s)
                writer.writerow([
                    rec["sessionID"], rec["userID"] or "", rec["stationID"],
                    rec["connectionTime"], repr(rec["samplePeriodSec"]),
                    ";".join(repr(v) for v in rec["pilotSignal"]),
                    ";".join(repr(v) for v in rec["chargingCurrent"]),
                ])


def admissible(session: ChargingSession, min_points: int) -> bool:
    """The per-session admission rule: labeled, with both series of at least
    ``min_points`` samples."""
    return bool(session.ev_label) and len(session.pilot) >= min_points


def kept_labels(counts: Counter, min_sessions: int) -> set[str]:
    """The per-EV admission rule: EVs with at least ``min_sessions``
    admissible sessions, given each EV's count of them."""
    return {label for label, n in counts.items() if n >= min_sessions}


def apply_primary_filters(corpus: Corpus, min_points: int = 100,
                          min_sessions: int = 10) -> Corpus:
    """Admission rules: labeled sessions with both series of at least
    ``min_points`` samples, then EVs keeping at least ``min_sessions`` such
    sessions. The length filter runs first so unusable sessions do not count
    toward an EV's quota. Idempotent.
    """
    long_enough = [s for s in corpus if admissible(s, min_points)]
    kept = kept_labels(Counter(s.ev_label for s in long_enough), min_sessions)
    return Corpus(tuple(s for s in long_enough if s.ev_label in kept),
                  corpus.provenance)
