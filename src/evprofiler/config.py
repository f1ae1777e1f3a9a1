"""Flat key=value config file handling and the run manifest.

Config files hold one ``section.key = value`` pair per line; ``#`` starts a
comment. Command-line flags override file values. The manifest written next
to every output records the tool version, the resolved configuration, seeds,
input digests, per-stage counts, and wall-clock timings.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, fields
from typing import Any, Optional

from . import __version__
from .filters import FilterParams
from .tail import TailParams

# section -> params class; its dataclass defaults are the config defaults
_SECTIONS = {"filter": FilterParams, "tail": TailParams}
CONFIG_KEYS = {f"{section}.{f.name}": type(f.default)
               for section, cls in _SECTIONS.items() for f in fields(cls)}


class ConfigError(ValueError):
    pass


def parse_config_file(path: str) -> dict[str, Any]:
    values: dict[str, Any] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = CONFIG_KEYS[key](value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return values


def params_from(section: str, values: dict[str, Any]):
    """The section's params object from the keys present in ``values``."""
    cls = _SECTIONS[section]
    return cls(**{f.name: values[key] for f in fields(cls)
                  if (key := f"{section}.{f.name}") in values})


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    command: str
    config: dict = field(default_factory=dict)
    seed: Optional[int] = None
    inputs: dict = field(default_factory=dict)    # path -> sha256
    counts: dict = field(default_factory=dict)    # stage -> row/reject counts
    timings: dict = field(default_factory=dict)   # stage -> seconds
    version: str = __version__
    _started: dict = field(default_factory=dict, repr=False)

    def add_input(self, path: str) -> None:
        self.inputs[os.path.basename(path)] = file_digest(path)

    def start(self, stage: str) -> None:
        self._started[stage] = time.perf_counter()

    def stop(self, stage: str) -> None:
        self.timings[stage] = time.perf_counter() - self._started.pop(stage)

    def write(self, out_dir: str, name: str = "manifest.json") -> str:
        doc = {"version": self.version, "command": self.command,
               "seed": self.seed, "config": self.config,
               "inputs": self.inputs, "counts": self.counts,
               "timings": self.timings}
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path
