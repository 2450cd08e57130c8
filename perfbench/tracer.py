"""In-memory spans around calls into the simulator's layers, recorded from outside.

A span records its name, start, end, parent span and the top-level span
(one set-up or one step) it belongs to. Layer spans come from wrapping the
public functions that ``scenario.py`` and ``timesync.py`` reach through module
attributes; nothing inside the package changes. Without ``layers=True`` only
the top-level set-up and step spans are recorded, which is what the untraced
end-to-end measurement uses. With it, set-ups and every odd-numbered step are
traced and the wrappers are swapped out for the even-numbered steps, so traced
and untraced steps interleave and the tracing overhead is measured over the
same stretch of host time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# Wrapped public functions, as "<module>.<function>". Where another dcbf
# module imported the function by name (scenario's add_noise, timesync's
# acquire and gen_mls, ...), every such binding is wrapped too.
LAYER_FUNCTIONS = (
    "beamform.mmse_rx_beamformer",
    "beamform.apply_rx_beamformer",
    "beamform.build_delay_matrix",
    "estimation.acquire",
    "estimation.ml_cfo",
    "estimation.cfo_reference_table",
    "estimation.ml_cfo_table",
    "estimation.estimate_channels_joint",
    "estimation.remove_dc",
    "impairments.apply_node_imperfections",
    "impairments.add_noise",
    "impairments.apply_channel",
    "waveform.build_frame",
    "waveform.modulate",
    "waveform.gen_mls",
    "timesync.sync_wire_signal",
    "timesync.detect_and_decode",
    "timesync.decode_sync_message",
    "timesync.encode_sync_message",
    "metrics.segment_power",
    "cli.load_config",
    "cli.apply_overrides",
)
# ComplexSignal validates (and scans for non-finite samples) on every construction.
VALIDATION = "core.ComplexSignal.__post_init__"

# What the per-layer metrics report: per step, and per set-up.
STEP_FUNCTIONS = tuple(f for f in LAYER_FUNCTIONS if not f.startswith("cli.")) + (VALIDATION,)
SETUP_FUNCTIONS = (
    "cli.load_config",
    "cli.apply_overrides",
    "estimation.cfo_reference_table",
    "estimation.ml_cfo_table",
    VALIDATION,
)
RAISING = ("estimation.acquire", "timesync.detect_and_decode", "timesync.decode_sync_message")

SETUP, STEP = "setup", "step"


class Tracer:
    """Spans kept in memory as parallel lists; one process, one thread."""

    def __init__(self, layers: bool = False):
        self.layers = layers
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.top: list[int] = []
        self.raised: list[bool] = []
        self.traced: list[bool] = []  # whether the layers were wrapped during the span
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []  # owner, attr, original, traced
        self._wrapped = False
        self._n_steps = 0

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.name)
        stack = self._stack
        self.name.append(name)
        self.parent.append(stack[-1] if stack else -1)
        self.top.append(stack[0] if stack else i)
        self.raised.append(False)
        self.traced.append(self._wrapped)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        stack = self._stack
        while stack and stack.pop() != i:
            pass

    def begin_top(self, kind: str) -> None:
        """End the open set-up or step span, if any, and start a new one."""
        self.end_top()
        if self.layers:
            self._wrap_layers(kind == SETUP or self._n_steps % 2 == 1)
        self._n_steps += kind == STEP
        self.open(kind)

    def end_top(self) -> None:
        if self._stack:
            self.close(self._stack[0])

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[i] = True
                raise
            finally:
                self.close(i)

        return traced

    # -- patching ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        if self.layers:
            self._find_layers()
        return self

    def __exit__(self, *exc) -> None:
        self._wrap_layers(False)
        self._patches.clear()

    def _wrap_layers(self, on: bool) -> None:
        if on != self._wrapped:
            for owner, attr, original, traced in self._patches:
                setattr(owner, attr, traced if on else original)
            self._wrapped = on

    def _find_layers(self) -> None:
        """Every binding of each layer function, with its wrapper."""
        modules = [m for n, m in list(sys.modules.items()) if n == "dcbf" or n.startswith("dcbf.")]
        for qual in LAYER_FUNCTIONS:
            mod_name, fn_name = qual.split(".")
            original = getattr(sys.modules[f"dcbf.{mod_name}"], fn_name)
            traced = self._wrap(qual, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original, traced))
        from dcbf.core import ComplexSignal

        original = ComplexSignal.__post_init__
        self._patches.append((ComplexSignal, "__post_init__", original, self._wrap(VALIDATION, original)))

    # -- results -----------------------------------------------------------

    def tops(self, kind: str, traced: bool | None = None) -> list[int]:
        """Top-level spans of a kind; with ``traced``, only those that were or were not."""
        return [
            i
            for i in range(len(self.name))
            if self.parent[i] == -1 and self.name[i] == kind and traced in (None, self.traced[i])
        ]

    def durations(self, kind: str, traced: bool | None = None) -> list[float]:
        return [self.end[i] - self.start[i] for i in self.tops(kind, traced)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def aggregate(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per top-level kind, per span name: calls, raised and self seconds,
        over the traced set-ups and steps."""
        own = self.self_times()
        out: dict[str, dict[str, dict[str, float]]] = {
            SETUP: defaultdict(lambda: {"calls": 0, "raised": 0, "self_s": 0.0}),
            STEP: defaultdict(lambda: {"calls": 0, "raised": 0, "self_s": 0.0}),
        }
        for i, name in enumerate(self.name):
            kind = self.name[self.top[i]]
            if kind not in out or not self.traced[self.top[i]]:
                continue
            entry = out[kind][name]
            entry["calls"] += 1
            entry["raised"] += int(self.raised[i])
            entry["self_s"] += own[i]
        return {k: dict(v) for k, v in out.items()}

    def nesting_error(self) -> float:
        """Seconds by which the worst span sticks out of its parent's interval;
        infinite if a span was never closed. Zero when spans nest properly."""
        worst = 0.0
        for i, p in enumerate(self.parent):
            if self.end[i] < self.start[i]:
                return float("inf")
            if p >= 0:
                worst = max(worst, self.start[p] - self.start[i], self.end[i] - self.end[p])
        return worst

    def untraced_children(self) -> int:
        """Spans recorded inside untraced set-ups or steps; zero unless some
        code kept a reference to a wrapper past the step it was made for."""
        return sum(self.parent[i] >= 0 and not self.traced[self.top[i]] for i in range(len(self.name)))

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent, top, raised, traced."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with path.open("w") as fh:
            for i, name in enumerate(self.name):
                start, end = self.start[i] - t0, self.end[i] - t0
                rec = [name, start, end, self.parent[i], self.top[i], self.raised[i], self.traced[i]]
                fh.write(json.dumps(rec) + "\n")
