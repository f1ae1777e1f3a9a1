"""Synthetic CC/CV charging sessions with planted per-EV battery signatures.

Shape model: a flat CC plateau at pilot_level - cc_gap, then an exponential
CV decay that terminates at a fixed cutoff current (charge termination),
then exact zeros. Periodic single-sample spikes ride the upper part of the
decay; Gaussian noise rides everything before the zero region. The planted
CV onset and zero onset are exact, so the tail extractor can be scored
against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from .ingest import ChargingSession, Corpus, TimeSeries

# Decay ends at this current (amperes); the signal is exactly zero after.
TERMINATION_CURRENT = 2.2

# Each session's sample count is drawn uniformly from this closed range.
LENGTH_BOUNDS = (600, 1200)

# Well-separated signature grids. Grid sizes 41 / 13 / 3 are pairwise
# coprime, and each dimension is indexed by ev_index modulo its size, so the
# joint (lambda, gap, pilot) combination is unique for the first
# 41 * 13 * 3 = 1599 EVs while every dimension still varies between
# neighboring indices (any 41 consecutive EVs have distinct decay rates).
LAMBDA_GRID = tuple(round(0.030 + 0.001 * i, 3) for i in range(41))
GAP_GRID = tuple(round(0.6 + 0.2 * i, 1) for i in range(13))
PILOT_GRID = (16.0, 24.0, 32.0)
AMP_GRID = (0.8, 1.2, 1.6, 2.0, 2.4)
PERIOD_GRID = (12, 19, 26, 33, 40)
ONSET_GRID = (0.60, 0.65, 0.70, 0.75, 0.80)
WELL_SEPARATED_NOISE = 0.05

# Overlapping mode draws from compressed continuous ranges, so nearby EVs
# collide within the (higher) noise floor instead of landing on grid points.
OVERLAP_LAMBDA = (0.035, 0.055)
OVERLAP_GAP = (1.2, 2.0)
OVERLAPPING_NOISE = 0.10

SEPARATIONS = ("well-separated", "overlapping")


@dataclass(frozen=True)
class SyntheticSignature:
    """Per-EV battery parameters; the ground truth behind every session."""

    pilot_level: float
    cc_gap: float
    decay_rate: float
    spike_period: int
    spike_amplitude: float
    noise_sigma: float
    cv_onset_fraction: float

    def __post_init__(self):
        if not self.pilot_level > self.cc_gap >= 0:
            raise ValueError("need pilot_level > cc_gap >= 0")
        if self.decay_rate <= 0:
            raise ValueError("decay_rate must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if not 0.6 <= self.cv_onset_fraction <= 0.8:
            raise ValueError("cv_onset_fraction must be in [0.6, 0.8]")
        if self.spike_period < 1:
            raise ValueError("spike_period must be >= 1")


@dataclass(frozen=True)
class SynthOptions:
    separation: str = "well-separated"
    truncate_prob: float = 0.0
    noise_sigma: Optional[float] = None  # overrides the signature's noise

    def __post_init__(self):
        if self.separation not in SEPARATIONS:
            raise ValueError(f"unknown separation {self.separation!r}")
        if not 0.0 <= self.truncate_prob <= 1.0:
            raise ValueError("truncate_prob must be in [0, 1]")


def generate_signature(ev_index: int, seed: int,
                       separation: str = "well-separated") -> SyntheticSignature:
    """Deterministic signature for (seed, ev_index)."""
    if ev_index < 0:
        raise ValueError("ev_index must be >= 0")
    if separation not in SEPARATIONS:
        raise ValueError(f"unknown separation {separation!r}")
    if separation == "well-separated":
        dim_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E9]))
        perm_l = dim_rng.permutation(len(LAMBDA_GRID))
        perm_g = dim_rng.permutation(len(GAP_GRID))
        perm_p = dim_rng.permutation(len(PILOT_GRID))
        lam = LAMBDA_GRID[perm_l[ev_index % len(LAMBDA_GRID)]]
        gap = GAP_GRID[perm_g[ev_index % len(GAP_GRID)]]
        pilot = PILOT_GRID[perm_p[ev_index % len(PILOT_GRID)]]
        ev_rng = np.random.default_rng(np.random.SeedSequence([seed, ev_index]))
        amp = AMP_GRID[int(ev_rng.integers(len(AMP_GRID)))]
        period = PERIOD_GRID[int(ev_rng.integers(len(PERIOD_GRID)))]
        onset = ONSET_GRID[int(ev_rng.integers(len(ONSET_GRID)))]
        noise = WELL_SEPARATED_NOISE
    else:
        ev_rng = np.random.default_rng(np.random.SeedSequence([seed, ev_index]))
        lam = float(ev_rng.uniform(*OVERLAP_LAMBDA))
        gap = float(ev_rng.uniform(*OVERLAP_GAP))
        pilot = PILOT_GRID[int(ev_rng.integers(len(PILOT_GRID)))]
        amp = float(ev_rng.uniform(AMP_GRID[0], AMP_GRID[-1]))
        period = int(ev_rng.integers(PERIOD_GRID[0], PERIOD_GRID[-1] + 1))
        onset = float(ev_rng.uniform(0.6, 0.8))
        noise = OVERLAPPING_NOISE
    return SyntheticSignature(
        pilot_level=pilot, cc_gap=gap, decay_rate=lam,
        spike_period=period, spike_amplitude=amp,
        noise_sigma=noise, cv_onset_fraction=onset,
    )


def planted_boundaries(signature: SyntheticSignature, length: int) -> tuple[int, int]:
    """(cv_onset, zero_onset) the generator plants for a full-length session."""
    onset = int(math.floor(signature.cv_onset_fraction * length))
    plateau = signature.pilot_level - signature.cc_gap
    # first k with plateau * exp(-lambda k) < cutoff
    k = int(math.floor(math.log(plateau / TERMINATION_CURRENT)
                       / signature.decay_rate)) + 1
    return onset, min(onset + k, length)


def _spike_floor(signature: SyntheticSignature) -> float:
    # Spikes stay in the fast-decay region: the step right after a spike
    # (walking backward) must still exceed the walk tolerance, so a spike can
    # never mask the tail boundary.
    return max(2.0 * TERMINATION_CURRENT, 0.4 / signature.decay_rate)


def generate_session(signature: SyntheticSignature, session_seed,
                     length: int, truncate_prob: float = 0.0,
                     session_id: str = "SYN-0", ev_label: Optional[str] = None,
                     station_id: str = "SYN-ST-0",
                     connect_time: str = "2021-01-01T08:00:00") -> ChargingSession:
    """One session from a signature; all randomness comes from session_seed."""
    if length < 120:
        raise ValueError("length must be >= 120")
    rng = (session_seed if isinstance(session_seed, np.random.Generator)
           else np.random.default_rng(session_seed))
    onset, zero_onset = planted_boundaries(signature, length)
    plateau = signature.pilot_level - signature.cc_gap

    truncate = rng.random() < truncate_prob
    cut = length
    if truncate:
        lo = min(100, max(2, onset // 2))
        cut = int(rng.integers(lo, onset)) if onset > lo else max(2, onset - 1)

    current = np.zeros(length)
    current[:onset] = plateau
    decay_idx = np.arange(onset, zero_onset)
    current[decay_idx] = plateau * np.exp(-signature.decay_rate * (decay_idx - onset))

    floor = _spike_floor(signature)
    spike_at = np.arange(onset + signature.spike_period, zero_onset,
                         signature.spike_period)
    spike_at = spike_at[current[spike_at] >= floor]
    current[spike_at] += signature.spike_amplitude

    if signature.noise_sigma > 0:
        noise = rng.normal(0.0, signature.noise_sigma, length)
        current[:zero_onset] += noise[:zero_onset]
    np.maximum(current, 0.0, out=current)
    current[zero_onset:] = 0.0

    pilot = np.full(length, signature.pilot_level)
    if truncate:
        current, pilot = current[:cut], pilot[:cut]
    return ChargingSession(
        session_id=session_id, ev_label=ev_label, station_id=station_id,
        connect_time=connect_time,
        pilot=TimeSeries(pilot), current=TimeSeries(current),
    )


def iter_corpus(n_evs: int, sessions_per_ev: int, seed: int,
                options: Optional[SynthOptions] = None) -> Iterator[ChargingSession]:
    """The sessions of ``generate_corpus``, in its order, each made as the
    iterator is advanced."""
    if n_evs < 1 or sessions_per_ev < 1:
        raise ValueError("need n_evs >= 1 and sessions_per_ev >= 1")
    options = options or SynthOptions()
    lo, hi = LENGTH_BOUNDS
    for i in range(n_evs):
        sig = generate_signature(i, seed, options.separation)
        if options.noise_sigma is not None:
            sig = replace(sig, noise_sigma=options.noise_sigma)
        label = f"SYN-{i:03d}"
        for k in range(sessions_per_ev):
            rng = np.random.default_rng(np.random.SeedSequence([seed, i, k]))
            length = int(rng.integers(lo, hi + 1))
            yield generate_session(
                sig, rng, length, options.truncate_prob,
                session_id=f"{label}-{k:04d}", ev_label=label,
                connect_time=f"2021-{1 + k % 12:02d}-01T08:00:00",
            )


def generate_corpus(n_evs: int, sessions_per_ev: int, seed: int,
                    options: Optional[SynthOptions] = None) -> Corpus:
    """Labeled synthetic corpus, deterministic for (n_evs, sessions_per_ev, seed)."""
    return Corpus(tuple(iter_corpus(n_evs, sessions_per_ev, seed, options)))
