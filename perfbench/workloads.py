"""The benchmark's three workloads, driven through the package's public API.

Each workload runs for a given number of host seconds, marks set-up and step
boundaries on the tracer, and checks the physical outputs of what it ran.
Cycle boundaries come from outside: every runner builds one public
``scenario.CycleRecord`` at the start of each cycle, so the benchmark swaps
that name for a factory that marks the boundary and keeps the record.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from dcbf import cli, metrics, scenario, timesync
from dcbf.core import NodeState, substream
from dcbf.impairments import ChannelModel, NoiseSpec

from tracer import SETUP, STEP, Tracer

SETUP_SAMPLES = 12  # set-ups spread evenly over a run; setup_s is their median
DIGEST_CYCLES = 10  # rx_interf cycles in the output digest
SYNC_PREFIX_ROUNDS = 100  # sync rounds in the digest and the corrected-bits count

# Two-way time transfer as `dcbf sync-demo --sweep` runs it (fresh follower
# each round). At Es/N0 = 10 dB the FEC corrects ~1.5 bits per round and no
# round aborted in 12,000. At 8 dB about one round in 1,000 aborts because a
# Golay block holds >= 4 bit errors, and at 6 dB about one round in 100
# reports success with an offset ~1e16 s off: a FEC miscorrection that no
# CRC catches. Either would count as a failed step here.
SYNC_SNR_DB = 10.0
SYNC_DELTA_S = 1.25e-3
SYNC_TOF_SAMPLES = 20
SYNC_FS = 2e6
SYNC_MAX_RESIDUAL_S = Fraction(1, int(SYNC_FS))  # one sample

# Criterion 3's bands hold only for an interferer the mesh can tell apart from
# the source. With the bundled config's own channel draw, seed 101 puts the two
# spatial signatures at |a^H b|^2 / (|a|^2 |b|^2) = 0.98 and the SINR
# improvement drops to 6 dB: nulling such an interferer nulls the source too.
# So rx_interf draws its unit-gain random-phase links from the benchmark seed
# and redraws the interferer's until they are at most this collinear.
RX_NODES = 3  # mesh size of the bundled rx_bf_interf config
RX_MAX_COLLINEARITY = 0.5

# ComplexSignal refuses non-finite samples, but the dB figures are plain floats.
RX_REQUIRED = ("bf_snr_db", "bf_inr_db", "bf_sinr_db", "gain_snr_db", "sinr_improvement_db", "inr_reduction_db")
TX_REQUIRED = ("bf_snr_db", "gain_snr_db")


class Stop(Exception):
    """Raised from the cycle hook to end a run at a cycle boundary."""


@dataclass
class Run:
    """What one timed run of a workload produced."""

    elapsed_s: float  # timed section with the runs' own set-ups, without extra probes
    n_steps: int
    failed_steps: int
    setups_s: list[float]
    checks: dict[str, bool]
    outputs: dict[str, float]
    digest: str | None
    counts: dict[str, float] = field(default_factory=dict)


@contextmanager
def cycle_hook(tracer: Tracer, records: list, stop):
    """Mark a step boundary at every CycleRecord the runners build; raise
    Stop instead of starting a cycle once stop(records) is true."""
    real = scenario.CycleRecord

    def make(*args, **kwargs):
        tracer.end_top()
        if stop(records):
            raise Stop
        tracer.begin_top(STEP)
        rec = real(*args, **kwargs)
        records.append(rec)
        return rec

    scenario.CycleRecord = make
    try:
        yield
    finally:
        scenario.CycleRecord = real


def run_config(tracer: Tracer, name: str, overrides: list[str], stop=lambda records: False):
    """Load a bundled config the way `dcbf run --config NAME --override ...`
    does and run it; set-up runs from load_config to the first cycle."""
    records: list = []
    cfg = None
    tracer.begin_top(SETUP)
    with cycle_hook(tracer, records, stop):
        try:
            cfg = cli.apply_overrides(cli.load_config(name), overrides)
            scenario.run_scenario(cfg)
        except Stop:
            pass
        finally:
            tracer.end_top()
    return cfg, records


class SetupProbes:
    """Extra set-ups at even intervals of the timed section, run between
    steps, so that set-up time samples the same stretch of host time as the
    steps do. Together with the run's own set-up they make SETUP_SAMPLES."""

    def __init__(self, seconds: float, probe):
        self.t0 = time.perf_counter()
        self.seconds = seconds
        self.probe = probe
        self.done = 0
        self.spent_s = 0.0  # host time of the probes, left out of the run's elapsed time

    def __call__(self) -> None:
        now = time.perf_counter()
        if self.done < SETUP_SAMPLES - 1 and now >= self.t0 + (self.done + 1) * self.seconds / SETUP_SAMPLES:
            self.done += 1
            self.probe()
            self.spent_s += time.perf_counter() - now


def _cycle_failed(rec, required: tuple[str, ...]) -> bool:
    if "acq_fail" in rec.flags or "no_detection" in rec.flags:
        return True
    values = [getattr(rec, f) for f in required]
    values += rec.siso_snr_db + rec.siso_inr_db + rec.siso_sinr_db + rec.cfo_est_hz
    return not all(math.isfinite(v) for v in values)


def _sha(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def separable_links(seed: int) -> str:
    """A `channels=` override: source links A->n_i and interferer links J->n_i."""
    rng = np.random.default_rng(seed)
    a = np.exp(2j * np.pi * rng.random(RX_NODES))
    b = np.exp(2j * np.pi * rng.random(RX_NODES))
    while abs(np.vdot(a, b)) ** 2 / RX_NODES**2 > RX_MAX_COLLINEARITY:
        b = np.exp(2j * np.pi * rng.random(RX_NODES))
    links = {f"{tx}->n{i + 1}": h[i] for tx, h in (("A", a), ("J", b)) for i in range(RX_NODES)}
    return "channels=" + json.dumps({k: {"taps": [[h.real, h.imag]], "tof": 0} for k, h in links.items()})


def rx_interf(seed: int, seconds: float, tracer: Tracer) -> Run:
    overrides = [f"seed={seed}", separable_links(seed)]
    probes = SetupProbes(seconds, lambda: run_config(tracer, "rx_bf_interf", overrides, stop=lambda records: True))
    deadline = probes.t0 + seconds

    def stop(records) -> bool:
        probes()
        return bool(records) and time.perf_counter() >= deadline

    cfg, records = run_config(tracer, "rx_bf_interf", overrides + ["n_cycles=1000000"], stop)
    elapsed = time.perf_counter() - probes.t0 - probes.spent_s

    summary = cli.summarize(records, cfg, "perfbench")
    inr = summary["inr_reduction_db_timeavg"]
    sinr = summary["sinr_improvement_db_timeavg"]
    digest = None
    if len(records) >= DIGEST_CYCLES:
        digest = _sha(cli.cycle_csv_lines(records[:DIGEST_CYCLES], cfg.mesh.n_nodes, "perfbench"))
    return Run(
        elapsed_s=elapsed,
        n_steps=len(records),
        failed_steps=sum(_cycle_failed(r, RX_REQUIRED) for r in records),
        setups_s=tracer.durations(SETUP),
        checks={"inr_reduction_db>=10": inr >= 10.0, "sinr_improvement_db>=10": sinr >= 10.0},
        outputs={"inr_reduction_db": inr, "sinr_improvement_db": sinr},
        digest=digest,
    )


def coherence_sweep(seed: int, seconds: float, tracer: Tracer) -> Run:
    """Consecutive config seeds from `seed`, a fresh runner each, until time
    is up; every seed's set-up is a set-up sample."""
    t0 = time.perf_counter()
    deadline = t0 + seconds
    runs = []
    while not runs or time.perf_counter() < deadline:
        runs.append(run_config(tracer, "coherence", [f"seed={seed + len(runs)}"]))
    elapsed = time.perf_counter() - t0

    cfg = runs[0][0]
    halted = all(any("halted" in r.flags for r in recs) for _, recs in runs)
    # criterion 5: seed-averaged final-cycle gain against the bound at that
    # cycle's accumulated phase variance
    final_gain_db = metrics.to_db(statistics.fmean(10 ** (recs[-1].gain_snr_db / 10) for _, recs in runs))
    period = cfg.mesh.cycle_period_s
    phi_final = cfg.phase_walk_var_per_s * max((cfg.n_cycles - 1) * period - cfg.feedback_halt_time_s, 0.0)
    bound_db = metrics.to_db(metrics.power_gain_bound(cfg.mesh.n_nodes, phi_final))
    return Run(
        elapsed_s=elapsed,
        n_steps=sum(len(recs) for _, recs in runs),
        failed_steps=sum(_cycle_failed(r, TX_REQUIRED) for _, recs in runs for r in recs),
        setups_s=tracer.durations(SETUP),
        checks={"every_seed_halted": halted},
        outputs={
            "seeds": len(runs),
            "final_gain_db": final_gain_db,
            "bound_db": bound_db,
            "bound_gap_db": final_gain_db - bound_db,
        },
        digest=_sha(cli.cycle_csv_lines(runs[0][1], cfg.mesh.n_nodes, "perfbench")),
    )


def _sync_setup_s() -> float:
    """Fresh interpreter with numpy and scipy loaded: seconds to import the
    package's time transfer module (the FEC tables are built at import)."""
    code = (
        "import time, numpy, scipy.linalg; t = time.perf_counter(); import dcbf.timesync; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip())


def sync(seed: int, seconds: float, tracer: Tracer) -> Run:
    setups = [_sync_setup_s()]
    leader = NodeState(node_id="L")
    up = ChannelModel(taps=np.array([1.0 + 0j]), tof_delay=SYNC_TOF_SAMPLES, label="F->L")
    down = ChannelModel(taps=np.array([1.0 + 0j]), tof_delay=SYNC_TOF_SAMPLES, label="L->F")
    noise = NoiseSpec(10 ** (-SYNC_SNR_DB / 10))
    rng = substream(seed, "sync", "perfbench")
    results = []
    probes = SetupProbes(seconds, lambda: setups.append(_sync_setup_s()))
    deadline = probes.t0 + seconds
    while not results or time.perf_counter() < deadline:
        tracer.begin_top(STEP)
        follower = NodeState(node_id="F", timestamp_offset_s=SYNC_DELTA_S)
        results.append(timesync.run_sync_round(leader, follower, up, down, noise, rng, fs=SYNC_FS, history=[]))
        tracer.end_top()
        probes()
    elapsed = time.perf_counter() - probes.t0 - probes.spent_s

    failed = sum(not r.success or abs(r.residual) > SYNC_MAX_RESIDUAL_S for r in results)
    prefix = results[:SYNC_PREFIX_ROUNDS]
    worst = max((abs(r.residual) for r in results if r.success), default=Fraction(0))
    return Run(
        elapsed_s=elapsed,
        n_steps=len(results),
        failed_steps=failed,
        setups_s=setups,
        checks={},
        outputs={"worst_residual_s": float(worst)},
        digest=_sha([f"{r.success},{r.delta_hat},{r.residual},{r.corrected_bits}" for r in prefix]),
        counts={"timesync.corrected_bits": statistics.fmean(r.corrected_bits for r in prefix)},
    )


WORKLOADS = {"rx_interf": rx_interf, "coherence_sweep": coherence_sweep, "sync": sync}
# Seeds of the bundled configs; sync-demo's default seed.
DEFAULT_SEEDS = {"rx_interf": 12, "coherence_sweep": 15, "sync": 0}
