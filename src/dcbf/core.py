"""Shared domain types, deterministic RNG streams, and configuration validation."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "ComplexSignal",
    "Segment",
    "FrameLayout",
    "MeshConfig",
    "NodeState",
    "validate_config",
    "substream",
]


class ConfigError(ValueError):
    """Raised when a configuration violates an invariant. Carries the field name."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"{field_name}: {message}")


@dataclass(frozen=True)
class ComplexSignal:
    """A finite sequence of complex baseband samples at a stated sample rate.

    A reception, checked once for 1-D finite samples; the templates the
    program builds itself (frames, references, preambles) are plain arrays.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", arr)
        if arr.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples contain NaN or Inf")
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be > 0, got {self.sample_rate_hz}")


@dataclass(frozen=True)
class Segment:
    name: str
    offset: int
    length: int


@dataclass(frozen=True)
class FrameLayout:
    """Named, ordered, non-overlapping sample segments of a frame."""

    segments: tuple[Segment, ...]
    total_length: int

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        prev_end = 0
        for seg in self.segments:
            if seg.length < 0 or seg.offset < 0:
                raise ValueError(f"segment {seg.name!r} has negative offset/length")
            if seg.offset < prev_end:
                raise ValueError(f"segment {seg.name!r} overlaps or is out of order")
            if seg.offset + seg.length > self.total_length:
                raise ValueError(
                    f"segment {seg.name!r} exceeds total_length {self.total_length}"
                )
            prev_end = seg.offset + seg.length
        names = [s.name for s in self.segments]
        if len(set(names)) != len(names):
            raise ValueError("segment names must be unique")

    def segment(self, name: str) -> Segment:
        for seg in self.segments:
            if seg.name == name:
                return seg
        raise KeyError(name)

    def extract(self, samples: np.ndarray, name: str, shift: int = 0) -> np.ndarray:
        """Slice out one segment's samples; `shift` moves the window (e.g. filter delay)."""
        seg = self.segment(name)
        start = seg.offset + shift
        return np.asarray(samples)[start : start + seg.length]


@dataclass(frozen=True)
class MeshConfig:
    """System-level mesh parameters. Defaults follow the experimental values
    (2 MHz sampling, 8192-sample ambles, 256-sample guards, three nodes)."""

    n_nodes: int = 3
    sample_rate_hz: float = 2e6
    cycle_period_s: float = 0.2
    amble_len: int = 8192
    payload_len: int = 8192
    est_integration_len: int = 2048
    guard_len: int = 256
    diag_loading_eps: float = 1e-3


def _check_field_types(cfg, prefix: str = "") -> None:
    """Raise ConfigError naming prefix + field unless each field of the config
    dataclass cfg holds its default's type: an integer (not a bool) for int, a
    finite real for float (numpy scalars count), else the type; None defaults pass."""
    for f in dataclasses.fields(cfg):
        default = f.default_factory() if f.default is dataclasses.MISSING else f.default
        value = getattr(cfg, f.name)
        if isinstance(default, int):
            ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            kind = "an integer"
        elif isinstance(default, float):
            ok = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
            # NaN and inf fail, and so does a Python int beyond the float range
            ok = ok and (abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value))
            kind = "a finite real number"
        else:
            ok = default is None or isinstance(value, type(default))
            kind = f"a {type(default).__name__}"
        if not ok:
            raise ConfigError(prefix + f.name, f"must be {kind}, got {value!r}")


def validate_config(cfg: MeshConfig) -> MeshConfig:
    """Return cfg unchanged if all invariants hold, else raise ConfigError
    naming the field as mesh.<field>.

    Checks: field types; node count, rates, period and lengths > 0;
    non-negative diagonal loading.
    """
    _check_field_types(cfg, "mesh.")
    for name in ("n_nodes", "sample_rate_hz", "cycle_period_s", "amble_len", "payload_len", "est_integration_len",
                 "guard_len"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"mesh.{name}", "must be > 0")
    if cfg.diag_loading_eps < 0:
        raise ConfigError("mesh.diag_loading_eps", "must be ≥ 0")
    return cfg


def _conv_matrix(x: np.ndarray, cols: int, out: np.ndarray | None = None) -> np.ndarray:
    """Full-convolution matrix of x, in x's dtype: column k is x delayed by k
    samples, so _conv_matrix(x, len(h)) @ h is the full convolution of x and h.
    out, when given, is the zeroed (len(x) + cols - 1, cols) array to fill."""
    if out is None:
        out = np.zeros((len(x) + cols - 1, cols), dtype=x.dtype)
    for k in range(cols):
        out[k : k + len(x), k] = x
    return out


def _tag64(text: str) -> int:
    """Stable 64-bit tag of a string (first 8 bytes of its SHA-256)."""
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def substream(seed: int, entity: str | int, purpose: str) -> np.random.Generator:
    """Derive an independent RNG substream from the master seed.

    The child stream is seeded by the triple (seed, sha256(entity)[:8],
    sha256(purpose)[:8]) fed to numpy's SeedSequence, so any (entity, purpose)
    pair maps to the same stream regardless of construction order, and
    distinct pairs get statistically independent streams.
    """
    entropy = (int(seed) & (2**64 - 1), _tag64(str(entity)), _tag64(purpose))
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass
class NodeState:
    """One node's clock model and the RNG stream its phase walk draws from.

    phase_rad accumulates unwrapped.
    With phase_walk_var_per_s = 0 and cfo_hz = 0 the phase stays constant.
    A node that walks (phase_walk_var_per_s > 0) needs a stream of its own,
    rng, or two nodes would draw the same walk; one that does not walk draws
    nothing and the runner gives it no stream. The one mutable type of this
    module: owned by exactly one scenario runner or time-transfer round, which
    advances phase_rad and draws from rng.
    """

    node_id: str
    cfo_hz: float = 0.0
    phase_rad: float = 0.0
    phase_walk_var_per_s: float = 0.0
    timestamp_offset_s: float = 0.0
    rng: np.random.Generator | None = None

    def __post_init__(self):
        if self.phase_walk_var_per_s > 0 and self.rng is None:
            raise ValueError(f"rng: node {self.node_id!r} walks (phase_walk_var_per_s > 0) and needs its own stream")
