"""Charging-session corpus loading and admission filters.

Two on-disk formats are supported:

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
import io
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

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
    """Where a corpus came from and what was dropped or repaired on the way."""

    source: str
    format: str = "memory"
    dropped_missing_field: int = 0
    truncated_mismatched: int = 0
    clamped_negative: int = 0


@dataclass(frozen=True)
class Corpus:
    sessions: tuple[ChargingSession, ...]
    provenance: Provenance = field(default_factory=lambda: Provenance("memory"))

    def __post_init__(self):
        sessions = tuple(self.sessions)
        counts = Counter(s.session_id for s in sessions)
        if len(counts) != len(sessions):
            dup = sorted(i for i, n in counts.items() if n > 1)
            raise ParseError(f"duplicate session_id(s): {dup[:5]}")
        object.__setattr__(self, "sessions", sessions)

    def __len__(self) -> int:
        return len(self.sessions)

    def labels(self) -> list[str]:
        return sorted({s.ev_label for s in self.sessions if s.ev_label})

    def by_label(self) -> dict[str, list[ChargingSession]]:
        out: dict[str, list[ChargingSession]] = {}
        for s in self.sessions:
            if s.ev_label:
                out.setdefault(s.ev_label, []).append(s)
        return out


def _parse_float_list(raw, where: str) -> np.ndarray:
    try:
        arr = np.asarray([float(v) for v in raw], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: bad numeric list ({exc})") from exc
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


def _records_from_json(text: str) -> Iterable[tuple[str, dict]]:
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(rec, dict):
            raise ParseError(f"line {lineno}: expected a JSON object")
        yield f"line {lineno}", rec


def _records_from_csv(text: str) -> Iterable[tuple[str, dict]]:
    reader = csv.DictReader(io.StringIO(text))
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


def parse_sessions(source, fmt: str) -> Corpus:
    """Parse a corpus from a path, file object, or text/bytes blob.

    Records missing the session id, pilot, or current series are dropped and
    counted; mismatched pilot/current lengths are truncated to the shorter
    series; negative current samples are clamped to zero. Duplicate session
    ids are fatal.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    name = "<stream>"
    if isinstance(source, (str, os.PathLike)) and os.path.exists(os.fspath(source)):
        name = os.fspath(source)
        with open(name, "r", encoding="utf-8") as fh:
            text = fh.read()
    elif hasattr(source, "read"):
        text = source.read()
        name = getattr(source, "name", name)
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    elif isinstance(source, bytes):
        text = source.decode("utf-8")
    else:
        text = str(source)

    records = _records_from_json(text) if fmt == "acn-json" else _records_from_csv(text)
    stats = {"dropped_missing_field": 0, "truncated_mismatched": 0, "clamped_negative": 0}
    sessions = []
    for where, rec in records:
        session = _session_from_record(rec, where, stats)
        if session is not None:
            sessions.append(session)
    return Corpus(tuple(sessions), Provenance(source=name, format=fmt, **stats))


def _session_record(s: ChargingSession) -> dict:
    return {
        "sessionID": s.session_id,
        "userID": s.ev_label,
        "stationID": s.station_id,
        "connectionTime": s.connect_time,
        "samplePeriodSec": s.pilot.sample_period,
        "pilotSignal": [float(v) for v in s.pilot.values],
        "chargingCurrent": [float(v) for v in s.current.values],
    }


def write_sessions(corpus: Corpus, path: str, fmt: str = "acn-json") -> None:
    """Serialize a corpus; floats use repr so a round-trip is bit-exact."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "acn-json":
            for s in corpus.sessions:
                fh.write(json.dumps(_session_record(s)) + "\n")
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


def apply_primary_filters(corpus: Corpus, min_points: int = 100,
                          min_sessions: int = 10) -> Corpus:
    """Admission rules: labeled sessions with both series of at least
    ``min_points`` samples, then EVs keeping at least ``min_sessions`` such
    sessions. The length filter runs first so unusable sessions do not count
    toward an EV's quota. Idempotent.
    """
    long_enough = [s for s in corpus.sessions
                   if s.ev_label and len(s.pilot) >= min_points]
    counts: dict[str, int] = {}
    for s in long_enough:
        counts[s.ev_label] = counts.get(s.ev_label, 0) + 1
    kept = tuple(s for s in long_enough if counts[s.ev_label] >= min_sessions)
    return Corpus(kept, corpus.provenance)
