"""Cycle-by-cycle experiment runners.

Four experiments: receive beamforming (with or without an interferer),
transmit beamforming, transmit nulling, and the coherence-stability run
that freezes feedback partway through. One runner holds what they share:
the mesh clocks, the channel links and their dynamics, and the receive
chain. The receive and transmit families are policies on top of it: what
a cycle transmits, how weights feed back, and what it measures. Each run
emits one CycleRecord per cycle with SISO and beamformed metrics.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter

import numpy as np

from . import beamform, estimation, metrics, waveform
from .core import ComplexSignal, ConfigError, FrameLayout, MeshConfig, NodeState, substream, validate_config
from .core import _check_field_types, _conv_matrix, _tag64
from .estimation import AcquisitionError, AcquisitionResult
from .impairments import ChannelModel, add_noise, advance_clock, apply_channel, apply_node_imperfections
from .impairments import _cover, _phasor
from .metrics import LinkMetrics

__all__ = [
    "ScenarioConfig",
    "CycleRecord",
    "validate_scenario",
    "run_scenario",
    "EXPERIMENTS",
    "READ_BY",
]

EXPERIMENTS = ("RX_BF", "RX_BF_INTERF", "TX_BF", "TX_NULL", "COHERENCE")
RX_EXPERIMENTS = ("RX_BF", "RX_BF_INTERF")
TX_EXPERIMENTS = ("TX_BF", "TX_NULL", "COHERENCE")

# Per-node link labels of each experiment family, "{}" standing for the
# 1-based node index. Receive links run from the source A and the
# interferer J to every mesh node; transmit links run from every mesh node
# to the receiver B and to the nulled receiver C. A runner draws every link
# of its family in this order, C's too when only B receives, so the drawn
# channels are the same for every experiment of a family.
RX_LINKS = ("A->n{}", "J->n{}")
TX_LINKS = ("n{}->B", "n{}->C")

# Interference-only covariance windows are capped at this many look-through
# samples; far beyond the sample-support needed for N*T_w degrees of freedom.
COV_MAX_LEN = 16384

# Most unknowns (n_nodes * t_w) of one mesh MMSE solve. COV_MAX_LEN samples
# then give at least 16 per unknown, so the sample covariance costs under
# 0.3 dB of output SINR (Reed, Mallett and Brennan 1974: expected factor
# (L + 2 - D) / (L + 1) for L samples and D unknowns), and the D x D complex
# Gram of the solve stays at 16 MiB. Beyond it the Gram grows as D^2
# (74.5 GiB of float64 for the pulse's convolution matrix at t_w = 100000).
MAX_MMSE_UNKNOWNS = COV_MAX_LEN // 16

# Most complex values in the TX joint LS's design (estimation.joint_ls_system):
# (amble_len + t_h - 1) rows by D = n_nodes * t_h unknowns, held twice, as the
# design and its conjugate transpose, 128 MiB each at the bound. As amble_len
# >= 4 * D, 4 * D^2 stays within it too: D <= 1448, so the D x D normal matrix
# and the SVD np.linalg.cond takes of it stay within 32 MiB each. The bound
# leaves room for systems the conditioning check rejects (1023 unknowns on
# 4096-sample ambles, 4.5e6 values). Without it a one-node mesh of
# 45,216-sample ambles admits t_h = 11,304: a 20 GB design and conjugate.
MAX_LS_DESIGN_VALUES = 1 << 23

# Most points of either CFO grid. Every grid point is a column of a DTFT
# product (estimation._dtft): an acquisition holds (lags * ceil(sqrt(n))) x
# points complex values for n integrated samples, 17 * 45 x 4096 (50 MB) at
# the bundled 17 lags and 2048 samples, where a 1e-6 Hz coarse step would ask
# for 4e9 points. Each grid's DTFT phasor factors, (ceil(sqrt(n)) +
# ceil(n / ceil(sqrt(n)))) x points complex values, are kept for the process
# (estimation._factor_set), at most 4 sets at a time. A bundled config holds
# two, the coarse set (115 KiB) and the fine set (572 KiB). The largest
# admitted set is a fine one of 26.75 MiB: a TX amble of 45,730 samples, the
# longest a one-node frame carries, on 4096 points. A coarse set is bounded by
# MAX_ACQUISITION_VALUES below, at most 7.5 MiB.
MAX_CFO_GRID_POINTS = 4096

# Most complex values in one acquisition's DTFT: its input holds lags x n
# integrated samples and its product (lags * ceil(sqrt(n))) x points, so it
# must keep lags * ceil(sqrt(n)) * max(points, ceil(sqrt(n))) within 2^22
# (64 MiB an array). The bundled 17 lags stay within it at any admitted
# coarse grid (17 * 46 * 4096); an explicit tof of 324,000 samples would ask
# for 10.7 GB. With at least 17 lags, ceil(sqrt(n)) * points stays within
# 2^22 / 17, so the coarse factor set that the process keeps (the sum of two
# such arrays) is at most 7.5 MiB: 4033 samples on 3855 points.
MAX_ACQUISITION_VALUES = 1 << 22

# Largest fine CFO step, as a fraction of the fine metric's main lobe sample_rate_hz /
# amble_len (244 Hz by default): there the quadratic refinement's worst noiseless bias
# is 0.066 Hz, under 1 degree over a receive buffer (0.54 Hz at 0.2, 4.5 Hz at 0.41).
FINE_CFO_LOBE_FRACTION = 0.1


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one experiment run needs; JSON-serializable field for field."""

    experiment: str = "RX_BF"
    n_cycles: int = 100
    mesh: MeshConfig = field(default_factory=MeshConfig)
    signal_power: float = 1.0
    interferer_power: float = 0.0
    noise_power: float = 0.1
    source_cfo_hz: float = 437.0
    interferer_cfo_hz: float = -613.0
    rx_b_cfo_hz: float = 358.0
    rx_c_cfo_hz: float = -241.0
    channels: dict | None = None  # explicit per-link {"A->n1": {"taps": [[re,im],..], "tof": 0}}
    channel_kind: str = "random_phase"  # random_phase | rayleigh
    channel_taps: int = 1
    channel_walk_std_per_cycle: float = 0.0
    channel_redraw_every: int = 0  # cycles; 0 = static for the whole run
    phase_walk_var_per_s: float = 0.0
    ots_jitter_rad: float = 0.0
    t_w: int = 8
    t_h: int = 4
    cov_source: str = "interference_only"
    detection_threshold: float = 0.1
    coarse_cfo_span_hz: float = 2000.0
    coarse_cfo_step_hz: float = 50.0
    fine_cfo_step_hz: float = 1.0
    feedback_latency_cycles: int = 1
    feedback_halt_time_s: float = 2.5
    warmup_identity_s: float = 0.0
    seed: int = 1


# The fields that only some experiments read, each with the experiments that
# read it. Under any other experiment validate_scenario admits the field's
# default alone, so no setting runs and does nothing; every default is legal
# under every experiment.
READ_BY = {
    "interferer_power": ("RX_BF_INTERF",),
    "interferer_cfo_hz": ("RX_BF_INTERF",),
    "source_cfo_hz": RX_EXPERIMENTS,
    "t_w": RX_EXPERIMENTS,
    "cov_source": RX_EXPERIMENTS,
    "warmup_identity_s": RX_EXPERIMENTS,
    "rx_b_cfo_hz": TX_EXPERIMENTS,
    "t_h": TX_EXPERIMENTS,
    "feedback_latency_cycles": TX_EXPERIMENTS,
    "rx_c_cfo_hz": ("TX_NULL",),
    "feedback_halt_time_s": ("COHERENCE",),
    "mesh.diag_loading_eps": ("RX_BF", "RX_BF_INTERF", "TX_NULL"),
}
_DEFAULTS = {name: attrgetter(name)(ScenarioConfig()) for name in READ_BY}


def validate_scenario(cfg: ScenarioConfig) -> ScenarioConfig:
    """Return cfg unchanged if it can run, else raise ConfigError naming the
    field; no frame is synthesized before every check has passed (_admit)."""
    _admit(cfg)
    return cfg


def _admit(cfg: ScenarioConfig) -> tuple[FrameLayout, tuple[int, int], dict[str, ChannelModel], tuple, tuple]:
    """validate_scenario's checks, returning what they derive, which a runner
    keeps rather than deriving again: the layout of the family's frame design,
    (lag_hi, buf_len) of _receive_buffer, the explicit channels, parsed, by
    label, the family's receive references (_receive_references) and the
    (coarse, fine) CFO grids. The references come last, after every cheaper
    check: under TX they hold the joint-LS system, whose conditioning is the
    last check."""
    _check_field_types(cfg)
    for name, allowed in (("experiment", EXPERIMENTS), ("cov_source", ("full", "interference_only")),
                          ("channel_kind", ("random_phase", "rayleigh"))):
        if getattr(cfg, name) not in allowed:
            raise ConfigError(name, f"must be one of {allowed}")
    # noise_power divides every SNR; the steps space the CFO grids
    for name in ("n_cycles", "t_w", "t_h", "feedback_latency_cycles", "channel_taps", "noise_power",
                 "coarse_cfo_step_hz", "fine_cfo_step_hz"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(name, "must be > 0")
    for name in ("signal_power", "interferer_power", "phase_walk_var_per_s", "ots_jitter_rad", "coarse_cfo_span_hz",
                 "channel_walk_std_per_cycle", "channel_redraw_every", "feedback_halt_time_s", "warmup_identity_s"):
        if getattr(cfg, name) < 0:
            raise ConfigError(name, "must be ≥ 0")
    # the coarse grid spans ±coarse_cfo_span_hz, the fine one two coarse steps either side
    for name, points, rule in (
        ("coarse_cfo_step_hz", 2 * cfg.coarse_cfo_span_hz / cfg.coarse_cfo_step_hz + 1, "2·coarse_cfo_span_hz"),
        ("fine_cfo_step_hz", 4 * cfg.coarse_cfo_step_hz / cfg.fine_cfo_step_hz + 1, "4·coarse_cfo_step_hz"),
    ):
        if points > MAX_CFO_GRID_POINTS:
            raise ConfigError(name, f"{rule}/{name} + 1 = {points:.6g} grid points exceeds {MAX_CFO_GRID_POINTS}")
    span, step = cfg.coarse_cfo_span_hz, cfg.coarse_cfo_step_hz
    coarse_grid, fine_grid = np.arange(-span, span + step / 2, step), _fine_grid(cfg)
    # the fine estimate's quadratic refinement runs through the peak and both its neighbours
    if len(fine_grid) < 3:
        raise ConfigError("fine_cfo_step_hz", f"the fine grid over ±2·coarse_cfo_step_hz holds {len(fine_grid)} "
                          "points, fewer than the 3 its refinement needs: use at most 2·coarse_cfo_step_hz")
    if not 0 <= cfg.detection_threshold <= 1:
        raise ConfigError("detection_threshold", "must be in [0, 1]: the detection statistic is at most 1")
    for name, readers in READ_BY.items():
        if cfg.experiment not in readers and attrgetter(name)(cfg) != _DEFAULTS[name]:
            raise ConfigError(name, f"must be its default {_DEFAULTS[name]!r}: {cfg.experiment} does not read it "
                              f"(read by {', '.join(readers)})")
    if cfg.channel_kind == "random_phase" and cfg.channel_taps != 1:
        raise ConfigError("channel_taps", "must be 1: a random_phase channel has one tap")
    if cfg.interferer_power == 0 and cfg.interferer_cfo_hz != _DEFAULTS["interferer_cfo_hz"]:
        raise ConfigError("interferer_cfo_hz", f"must be its default {_DEFAULTS['interferer_cfo_hz']!r}: "
                          "at interferer_power 0 the interferer never transmits")
    validate_config(cfg.mesh)
    limit = FINE_CFO_LOBE_FRACTION * cfg.mesh.sample_rate_hz / cfg.mesh.amble_len
    if cfg.fine_cfo_step_hz > limit:
        raise ConfigError("fine_cfo_step_hz", f"must be ≤ {FINE_CFO_LOBE_FRACTION} of the fine metric's main lobe "
                          f"mesh.sample_rate_hz/mesh.amble_len, {limit:.6g} Hz: coarser steps bias its refinement")
    if cfg.experiment in RX_EXPERIMENTS:
        unknowns = cfg.mesh.n_nodes * cfg.t_w
        if unknowns > MAX_MMSE_UNKNOWNS:
            raise ConfigError("t_w", f"n_nodes·t_w = {unknowns} exceeds {MAX_MMSE_UNKNOWNS} MMSE unknowns")
        layout = waveform.rx_source_layout(cfg.mesh)
    else:
        layout = waveform.tx_node_layout(cfg.mesh)
        # joint LS of the N preambles (estimation.estimate_channels_joint)
        need = 4 * cfg.t_h * cfg.mesh.n_nodes
        if cfg.mesh.amble_len < need:
            raise ConfigError("t_h", f"joint channel estimation needs mesh.amble_len ≥ 4·t_h·n_nodes = {need}")
        values = (cfg.mesh.amble_len + cfg.t_h - 1) * cfg.mesh.n_nodes * cfg.t_h
        if values > MAX_LS_DESIGN_VALUES:
            raise ConfigError("t_h", f"the joint LS design, (mesh.amble_len + t_h − 1)·n_nodes·t_h = {values} "
                              f"complex values, exceeds {MAX_LS_DESIGN_VALUES}")
    explicit = {} if cfg.channels is None else _parse_channels(cfg)
    lags, buf_len, lag_field = _receive_buffer(cfg, layout, explicit)
    buf_s = buf_len / cfg.mesh.sample_rate_hz
    if cfg.mesh.cycle_period_s < buf_s:
        raise ConfigError("mesh.cycle_period_s", f"must be ≥ the receive buffer, {buf_s:.6g} s: cycles would overlap")
    root = math.ceil(math.sqrt(min(cfg.mesh.est_integration_len, cfg.mesh.amble_len)))
    values = lags * root * max(2 * cfg.coarse_cfo_span_hz / cfg.coarse_cfo_step_hz + 1, root)
    if values > MAX_ACQUISITION_VALUES:
        raise ConfigError(
            lag_field, f"acquisition over {lags} lags needs {values:.6g} complex values, above {MAX_ACQUISITION_VALUES}"
        )
    try:
        refs = _receive_references(*_reference_key(cfg))
    except ValueError as exc:  # raised only by the TX joint-LS system
        msg = (f"the joint LS of the {cfg.mesh.n_nodes} preambles over {cfg.t_h} taps each is numerically "
               "singular (normal matrix condition number above 1e12): use fewer taps")
        raise ConfigError("t_h", msg) from exc
    return layout, (lags, buf_len), explicit, refs, (coarse_grid, fine_grid)


def _fine_grid(cfg: ScenarioConfig) -> np.ndarray:
    """The fine CFO grid, relative to the coarse estimate: two coarse steps either side."""
    span = 2 * cfg.coarse_cfo_step_hz
    return np.arange(-span, span + cfg.fine_cfo_step_hz / 2, cfg.fine_cfo_step_hz)


def _heard_links(cfg: ScenarioConfig) -> list[str]:
    """Labels of the links that reach a receiver: for receive experiments
    the source's and the interferer's (even when it is silent), for transmit
    ones every node's to B, and to C when nulling."""
    families = RX_LINKS if cfg.experiment in RX_EXPERIMENTS else TX_LINKS[: 1 + (cfg.experiment == "TX_NULL")]
    return [f.format(i + 1) for f in families for i in range(cfg.mesh.n_nodes)]


def _receive_buffer(cfg: ScenarioConfig, layout: FrameLayout, explicit: dict[str, ChannelModel]
                    ) -> tuple[int, int, str]:
    """(lag_hi, buf_len, field): acquisition searches lags [0, lag_hi), and
    every receive buffer holds buf_len samples, room for the frame of layout
    over the longest delay and tap spread of the heard links. Drawn links
    have no delay and channel_taps taps; the explicit ones, parsed by label,
    their own. field names what sets the longest link: channels.<label> for
    an explicit one, else channel_taps. Sized once, at admission (_admit),
    which hands lag_hi and buf_len to the runner."""
    links = []  # (tof, taps, field)
    for label in _heard_links(cfg):
        ch = explicit.get(label)
        if ch is not None:
            links.append((ch.tof_delay, ch.n_taps, f"channels.{label}"))
        else:
            links.append((0, cfg.channel_taps, "channel_taps"))
    lag_hi = max(tof for tof, _, _ in links) + max(taps for _, taps, _ in links) + 16
    field = max(links, key=lambda link: link[0] + link[1])[2]
    return lag_hi, layout.total_length + lag_hi + 64, field


def _parse_channels(cfg: ScenarioConfig) -> dict[str, ChannelModel]:
    """The explicit channels by label; each must name a link a receiver hears and parse."""
    if not isinstance(cfg.channels, dict):
        raise ConfigError("channels", "must map link labels to channel specs")
    labels = _heard_links(cfg)
    parsed = {}
    for label, spec in cfg.channels.items():
        name = f"channels.{label}"
        if label not in labels:
            raise ConfigError(name, f"no {cfg.experiment} receiver hears this link (heard: {', '.join(labels)})")
        if not isinstance(spec, dict) or "taps" not in spec or not set(spec) <= {"taps", "tof"}:
            raise ConfigError(name, 'must be {"taps": [[re, im], ...], "tof": samples}')
        try:
            parsed[label] = _explicit_channel(spec, label)
        except (TypeError, ValueError) as exc:
            raise ConfigError(name, str(exc)) from exc
    return parsed


@dataclass
class CycleRecord:
    """Per-cycle results; schema-stable for CSV emission."""

    cycle: int
    t_virtual_s: float
    flags: str = ""
    siso_snr_db: list[float] = field(default_factory=list)
    siso_inr_db: list[float] = field(default_factory=list)
    siso_sinr_db: list[float] = field(default_factory=list)
    detection_stat: list[float] = field(default_factory=list)
    cfo_est_hz: list[float] = field(default_factory=list)
    bf_snr_db: float = float("nan")
    bf_inr_db: float = float("nan")
    bf_sinr_db: float = float("nan")
    gain_snr_db: float = float("nan")
    sinr_improvement_db: float = float("nan")
    inr_reduction_db: float = float("nan")
    bf_snr_c_db: float = float("nan")
    gain_c_db: float = float("nan")
    beamformer_ref: str = ""


# CycleRecord's per-node lists; the runner starts each with n_nodes NaNs.
PER_NODE_FIELDS = ("siso_snr_db", "siso_inr_db", "siso_sinr_db", "detection_stat", "cfo_est_hz")


def _bf_ref(bf: beamform.Beamformer) -> str:
    return hashlib.sha256(bf.to_json().encode()).hexdigest()[:12]


def _draw_channel(rng: np.random.Generator, kind: str, n_taps: int, label: str) -> ChannelModel:
    if kind == "random_phase":
        taps = np.exp(1j * rng.uniform(0, 2 * np.pi, 1))
    else:  # rayleigh: validate_scenario admits no other kind
        taps = (rng.normal(size=n_taps) + 1j * rng.normal(size=n_taps)) / np.sqrt(2 * n_taps)
    return ChannelModel(taps=taps, tof_delay=0, label=label)


def _explicit_channel(spec: dict, label: str) -> ChannelModel:
    taps = np.array([complex(re, im) for re, im in spec["taps"]], dtype=np.complex128)
    return ChannelModel(taps=taps, tof_delay=spec.get("tof", 0), label=label)


def _walk_channel(ch: ChannelModel, std: float, rng: np.random.Generator) -> ChannelModel:
    jitter = std * (rng.normal(size=ch.n_taps) + 1j * rng.normal(size=ch.n_taps)) / np.sqrt(2)
    return ChannelModel(taps=ch.taps + jitter, tof_delay=ch.tof_delay, label=ch.label)


def _reference_key(cfg: ScenarioConfig) -> tuple:
    """The arguments of _receive_references for cfg: its receive family ("RX"
    or "TX") and the fields its references read, n_nodes and t_h under TX only."""
    mesh = cfg.mesh
    if cfg.experiment in RX_EXPERIMENTS:
        return "RX", mesh.amble_len, mesh.est_integration_len, None, None
    return "TX", mesh.amble_len, mesh.est_integration_len, mesh.n_nodes, cfg.t_h


@lru_cache(maxsize=4)
def _receive_references(family: str, amble_len: int, est_integration_len: int, n_nodes: int | None,
                        t_h: int | None):
    """(pre_mf, acq_refs, cfo_segments, cfo_refs, ls_system) of the receive
    family ("RX" or "TX") of a config with these fields (_reference_key),
    read-only: every transmitter's preamble through the matched filter
    (acquisition keeps the strongest detection, so that one faded link cannot
    blind a receiver), their first est_integration_len samples as searched,
    the segments the CFO is refined on with their matched ambles, and the
    joint-LS system the TX receivers fit one channel per preamble against.
    Under RX the CFO is refined on the source's preamble, so cfo_refs is
    pre_mf, and ls_system is None; under TX on each of the n_nodes nodes'
    TDMA postambles, and ls_system is estimation.joint_ls_system of the
    preambles over t_h taps, which raises ValueError when its normal matrix
    is numerically singular.

    Cached for the whole process like waveform._shaped_amble, keyed on the
    fields they read: a sweep builds a fresh runner for every seed, and a
    sweep over any other field asks for the same entry, so every TX cycle
    fits against a system derived, and checked, once. The cache holds at most
    4 entries; a TX entry at MAX_LS_DESIGN_VALUES keeps the system's dh and a,
    about 160 MiB.
    """

    def matched(x: np.ndarray) -> np.ndarray:
        y = waveform._centered_convolve(x, waveform.PULSE)
        y.setflags(write=False)
        return y

    if family == "RX":
        pre_mf = (matched(waveform.source_ambles(MeshConfig(amble_len=amble_len))["preamble"]),)
        return pre_mf, tuple(p[:est_integration_len] for p in pre_mf), ("preamble",), pre_mf, None
    ambles = waveform.node_ambles(MeshConfig(n_nodes=n_nodes, amble_len=amble_len))
    cfo_segments = tuple(f"postamble_{i + 1}" for i in range(n_nodes))
    pre_mf = tuple(matched(a["preamble"]) for a in ambles)
    acq_refs = tuple(p[:est_integration_len] for p in pre_mf)
    cfo_refs = tuple(matched(a[name]) for a, name in zip(ambles, cfo_segments))
    return pre_mf, acq_refs, cfo_segments, cfo_refs, estimation.joint_ls_system(pre_mf, t_h)


def _add_arrivals(buf: np.ndarray, arrivals: list) -> list[tuple[int, int]]:
    """Add each (frame, link, spans) of arrivals through its link into buf;
    returns where they put nonzero samples in buf: each span shifted by its
    link's delay and spread by its taps. A function of its own, so that no
    loop variable keeps a frame alive once arrivals is emptied."""
    heard = []
    for sig, ch, spans in arrivals:
        apply_channel(buf, sig, ch, spans)
        heard += [(lo + ch.tof_delay, hi + ch.tof_delay + ch.n_taps - 1) for lo, hi in spans]
    return heard


class _Runner:
    """Mesh state, receive chain and cycle loop shared by the experiments.

    Built from what admission (_admit) derived: the frame layout, the receive
    buffer's size, the explicit channels, parsed once for every redraw, the
    receive references with the TX joint-LS system, and the CFO grids. It
    builds only the RNG streams its run draws from, none for a process the
    config leaves off and none for the radios out of the mesh (_radio);
    streams are keyed by (seed, entity, purpose), so one left out moves no other.

    An experiment family is a policy: _transmit sends a cycle's frames,
    _arrivals routes them over the links (LINKS) to each receiver, whose CFO
    is refined on the windows at cfo_offsets against cfo_refs, and _measure
    turns the receptions into the record and the feedback. A cycle's frames
    live until the last receiver's matched filter has run, before its
    acquisition and fine CFO; its receive buffers live until _measure has
    read them: _measure may empty the receptions list it is given.
    """

    LINKS: tuple[str, str]

    def __init__(self, cfg: ScenarioConfig):
        self.layout, (self.lag_hi, self.buf_len), self.explicit, refs, (self.coarse_grid, self.fine_grid) = _admit(cfg)
        self.pre_mf, self.acq_refs, cfo_segments, self.cfo_refs, self.ls_system = refs
        self.cfg = cfg
        mesh = cfg.mesh
        self.mesh = mesh
        self.n = mesh.n_nodes
        self.fs = mesh.sample_rate_hz
        self.pulse = waveform.PULSE
        self.t_ref = len(self.pre_mf[0])
        self.cfo_offsets = [self.layout.segment(name).offset for name in cfo_segments]

        seed, walk = cfg.seed, cfg.phase_walk_var_per_s
        self.links = self._draw_links("channels")
        self.walk_rng = substream(seed, "scenario", "channel_walk") if cfg.channel_walk_std_per_cycle > 0 else None
        self.nodes = [
            NodeState(node_id=f"n{i + 1}", phase_walk_var_per_s=walk,
                      rng=substream(seed, f"n{i + 1}", "phase_walk") if walk > 0 else None)
            for i in range(self.n)
        ]
        self.jitter_rng = ([substream(seed, f"n{i + 1}", "ots_jitter") for i in range(self.n)]
                           if cfg.ots_jitter_rad > 0 else [])
        self._jitter_now = [0.0] * self.n

    def _frame(self, layout: FrameLayout, contents: dict[str, np.ndarray], power: float):
        """(samples, spans): the frame of contents on layout, its spans scaled in
        place to the given power per sample: the (start, stop) of the segments
        that contents fill, where build_frame puts every nonzero sample."""
        samples = waveform.build_frame(layout, contents)
        spans = [(seg.offset, seg.offset + seg.length) for seg in map(layout.segment, contents)]
        scale = np.sqrt(power)
        for lo, hi in spans:
            samples[lo:hi] *= scale
        return samples, spans

    @staticmethod
    def _radio(node_id: str, cfo_hz: float) -> NodeState:
        """An out-of-mesh radio (A, J, B or C): its own LO offset, no phase
        walk, so no stream to draw one from."""
        return NodeState(node_id=node_id, cfo_hz=cfo_hz)

    def _set_receivers(self, receivers: list[NodeState]) -> None:
        self.receivers = receivers
        self.noise_rng = [substream(self.cfg.seed, rx.node_id, "noise") for rx in receivers]

    def _draw_links(self, purpose: str) -> list[list[ChannelModel]]:
        """Every link of the family, per LINKS entry and node: the explicit ones
        as admission parsed them, the others drawn in turn from the stream
        (seed, "scenario", purpose), built only when some link is drawn."""
        cfg = self.cfg
        labels = [[f.format(i + 1) for i in range(self.n)] for f in self.LINKS]
        drawn = any(label not in self.explicit for row in labels for label in row)
        rng = substream(cfg.seed, "scenario", purpose) if drawn else None
        return [
            [self.explicit[label] if label in self.explicit else
             _draw_channel(rng, cfg.channel_kind, cfg.channel_taps, label) for label in row]
            for row in labels
        ]

    def _evolve_channels(self, k: int) -> None:
        cfg = self.cfg
        if cfg.channel_redraw_every > 0 and k > 0 and k % cfg.channel_redraw_every == 0:
            self.links = self._draw_links(f"channels_cycle{k}")
        std = cfg.channel_walk_std_per_cycle
        if std > 0 and k > 0:
            self.links = [[_walk_channel(c, std, self.walk_rng) for c in chans] for chans in self.links]

    def _jitter_clocks(self) -> None:
        for i, rng in enumerate(self.jitter_rng):  # none without ots_jitter_rad
            # fresh per-cycle residual (not a walk): swap out last cycle's draw
            jit = rng.normal(0.0, self.cfg.ots_jitter_rad)
            self.nodes[i].phase_rad += jit - self._jitter_now[i]
            self._jitter_now[i] = jit

    def _receive(self, r: int, arrivals: list[tuple[np.ndarray, ChannelModel, list[tuple[int, int]]]]):
        """Receiver r's cycle: (matched-filtered buffer, acquisition, CFO
        estimate); raises AcquisitionError, with the best statistic of any
        preamble, when none clears the threshold.

        Each arrival is (frame, link, spans), spans holding every nonzero
        sample of the frame; arrivals is emptied once the matched filter has
        run. The buffer passes through the chain's stages in place, the
        channel and the receiver's LO working on the spans only; the matched
        filter's output is the one ComplexSignal, so a non-finite sample
        anywhere upstream still raises here."""
        cfg = self.cfg
        buf = np.zeros(self.buf_len, dtype=np.complex128)
        heard = _add_arrivals(buf, arrivals)
        apply_node_imperfections(buf, self.receivers[r], self.fs, -1, _cover(heard, 0, self.buf_len))
        add_noise(buf, cfg.noise_power, self.noise_rng[r])
        estimation.remove_dc(buf)
        sig_mf = ComplexSignal(waveform._centered_convolve(buf, self.pulse), self.fs)
        # the frames go here, not straight after the channel: below the filtered buffer just
        # allocated, their space is a hole that acquisition and fine CFO reuse; freed any
        # earlier, it would top glibc's heap, which trims it and then faults it back in
        arrivals.clear()
        z_mf = sig_mf.samples
        acq = estimation.acquire(
            sig_mf, self.acq_refs, (0, self.lag_hi), cfo_grid_hz=self.coarse_grid, threshold=cfg.detection_threshold
        )

        # fine CFO: derotate each known window by the coarse estimate, search
        # the fixed relative grid, and average over the windows
        wins = self._derotate(np.array([z_mf[acq.lag + o : acq.lag + o + self.t_ref] for o in self.cfo_offsets]),
                              acq.coarse_cfo_hz)
        fines = estimation.ml_cfo_windows(wins, self.cfo_refs, self.fine_grid, self.fs)
        return z_mf, acq, float(np.mean([acq.coarse_cfo_hz + e.f_hat_hz for e in fines]))

    def _derotate(self, z: np.ndarray, f_hz: float, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """z[..., lo:hi] times exp(-i 2 pi f t), t running from the start of a cycle buffer
        along z's last axis: removes a CFO of f_hz from each row. A 1-D z is
        multiplied from the phasor's side, in the phasor's buffer, and a stack
        of rows from z's side, in z's rows, which the caller hands over; at
        every length the bits of a slice are those of the same samples in the
        product over all of z."""
        part = z[..., lo:hi]
        phasor = _phasor((-2 * np.pi * f_hz) * (np.arange(lo, lo + part.shape[-1]) / self.fs))
        if z.ndim == 1:
            return np.multiply(phasor, part, out=phasor)
        return np.multiply(part, phasor, out=part)

    def run(self) -> list[CycleRecord]:
        period = self.mesh.cycle_period_s
        records = []
        for k in range(self.cfg.n_cycles):
            rec = CycleRecord(cycle=k, t_virtual_s=k * period, **{f: [float("nan")] * self.n for f in PER_NODE_FIELDS})
            flags: list[str] = []
            self._evolve_channels(k)
            self._jitter_clocks()
            sent = self._transmit(k, rec, flags)  # (transmitter, frame, spans) each
            receptions = []  # per receiver: (buffer, acquisition, CFO), None when not acquired
            for r, rx in enumerate(self.receivers):
                arrivals = self._arrivals(sent, r)
                if r == len(self.receivers) - 1:
                    # the last receiver's arrivals hold the frames' last references, which
                    # _receive lets go after its matched filter: only their lengths are read after
                    sent = [(node, len(sig)) for node, sig, _ in sent]
                try:
                    receptions.append(self._receive(r, arrivals))
                except AcquisitionError:
                    flags.append(f"acq_fail:{rx.node_id}")
                    receptions.append(None)
            self._measure(k, rec, flags, receptions)
            rec.flags = ";".join(flags)
            records.append(rec)

            # clocks run on to the next cycle: transmitters from the end of
            # what they sent, receivers from the end of their buffers
            for node, length in sent:
                advance_clock(node, period - length / self.fs)
            for node in self.receivers:
                advance_clock(node, period - self.buf_len / self.fs)
        return records

    def _record_link_budget(self, rec, flags, rx_id: str, siso: dict[int, LinkMetrics], bf: LinkMetrics) -> None:
        """Write receiver rx_id's link budget into rec: siso maps a mesh node's
        index to its single-node LinkMetrics, bf is the beamformed one. The
        gain is metrics.snr_gain over every SISO SNR; when their mean is not
        positive the gain is NaN and the cycle is flagged siso_nonpos:<rx_id>.
        The nulled receiver C records only its beamformed SNR and gain."""
        gain = metrics.snr_gain(bf.snr, [lm.snr for lm in siso.values()])
        if np.isnan(gain):
            flags.append(f"siso_nonpos:{rx_id}")
        if rx_id == "C":
            rec.bf_snr_c_db, rec.gain_c_db = bf.snr_db, gain
            return
        for i, lm in siso.items():
            rec.siso_snr_db[i], rec.siso_inr_db[i], rec.siso_sinr_db[i] = lm.snr_db, lm.inr_db, lm.sinr_db
        rec.bf_snr_db, rec.bf_inr_db, rec.bf_sinr_db = bf.snr_db, bf.inr_db, bf.sinr_db
        rec.gain_snr_db = gain


class _RxRunner(_Runner):
    """Receive beamforming: the source A (and the interferer J) transmit,
    every mesh node receives, and MMSE filters combine the nodes."""

    LINKS = RX_LINKS

    def __init__(self, cfg: ScenarioConfig):
        super().__init__(cfg)
        self.look_seg = self.layout.segment("look_through")
        self.pay_seg = self.layout.segment("payload")
        self.cov_window = None
        if cfg.cov_source == "interference_only":
            self.cov_window = (self.look_seg.offset, min(self.look_seg.length, COV_MAX_LEN))
        # white antenna noise through the matched filter and a node's taps w
        # has power w^H P w, P = G^H G for G the pulse's convolution matrix
        conv = _conv_matrix(self.pulse, cfg.t_w)
        self.noise_gram = conv.T @ conv
        self.with_interf = cfg.interferer_power > 0  # only RX_BF_INTERF may set it
        self.source = self._radio("A", cfg.source_cfo_hz)
        self.interferer = self._radio("J", cfg.interferer_cfo_hz)
        self.interferer_layout = waveform.interferer_layout(self.buf_len)
        self._set_receivers(self.nodes)

    def _transmit(self, k, rec, flags):
        cfg = self.cfg
        contents = waveform.source_frame(self.mesh, _tag64(f"{cfg.seed}:src_payload_{k}"))
        src, spans = self._frame(self.layout, contents, cfg.signal_power)
        sent = [(self.source, apply_node_imperfections(src, self.source, self.fs, 1, spans), spans)]
        if self.with_interf:
            contents = waveform.interferer_frame(self.buf_len, _tag64(f"{cfg.seed}:intf_payload_{k}"))
            intf, spans = self._frame(self.interferer_layout, contents, cfg.interferer_power)
            sent.append((self.interferer, apply_node_imperfections(intf, self.interferer, self.fs, 1, spans), spans))
        return sent

    def _arrivals(self, sent, r):
        # the source reaches node r over A->n, the interferer over J->n
        return [(sig, chans[r], spans) for (_, sig, spans), chans in zip(sent, self.links)]

    def _measure(self, k, rec, flags, receptions):
        cfg = self.cfg
        detected = [i for i in range(self.n) if receptions[i] is not None]
        for i in detected:
            rec.detection_stat[i], rec.cfo_est_hz[i] = receptions[i][1].detection_stat, receptions[i][2]
        if not detected:
            flags.append("no_detection")
            return
        # one common CFO correction for the whole mesh (the nodes share a
        # frequency reference, so per-node corrections would put spurious
        # differential rotation on every external signal); every node's SISO
        # beamformer and the mesh beamformer then read the same buffers, so
        # the beamformed/SISO ratio isolates the array gain
        f_common = float(np.mean([receptions[i][2] for i in detected]))
        lags = [receptions[i][1].lag for i in detected]
        # the stack is the one copy of the detected buffers read from here on: the
        # receivers' own buffers go before it is derotated in place, so that the
        # derotation's phasor takes the space they leave rather than sitting on top
        stack = np.array([receptions[i][0] for i in detected])
        receptions.clear()
        z_corrected = self._derotate(stack, f_common)
        if rec.t_virtual_s < cfg.warmup_identity_s:
            # the centre tap alone: each node on its own, then every node summed
            weights = np.zeros((len(detected) + 1, len(detected), cfg.t_w), dtype=np.complex128)
            weights[:, :, cfg.t_w // 2] = np.vstack([np.eye(len(detected)), np.ones(len(detected))])
            delta = 0.0
            flags.append("warmup")
        else:
            weights, deltas, _ = beamform.mmse_rx_beamformers(
                z_corrected, lags, self.pre_mf[0], cfg.t_w, self.cov_window, self.mesh.diag_loading_eps
            )
            delta = float(deltas[-1])
        powers, gains = beamform.rx_output_powers(
            weights, z_corrected, lags, (self.pay_seg, self.look_seg), self.noise_gram
        )
        *siso, bf = [
            metrics.link_metrics(p_pay, p_lt, cfg.noise_power * gain)
            for (p_pay, p_lt), gain in zip(powers.tolist(), gains.tolist())
        ]
        self._record_link_budget(rec, flags, "mesh", dict(zip(detected, siso)), bf)
        ids = tuple(f"n{i + 1}" for i in detected)
        rec.beamformer_ref = _bf_ref(beamform.Beamformer(weights[-1], "MMSE_RX", delta, ids, cfg.t_w // 2))
        sinrs = [lm.sinr for lm in siso if lm.sinr > 0]
        if sinrs:
            rec.sinr_improvement_db = bf.sinr_db - metrics.to_db(float(np.mean(sinrs)))
        inrs = [lm.inr for lm in siso if lm.inr > 0]
        if inrs:
            rec.inr_reduction_db = metrics.to_db(float(np.mean(inrs))) - bf.inr_db


class _TxRunner(_Runner):
    """Transmit beamforming, nulling and coherence: every mesh node
    transmits, B (and C when nulling) receive, and their channel estimates
    feed back into the nodes' predistortion weights."""

    LINKS = TX_LINKS

    def __init__(self, cfg: ScenarioConfig):
        nulling = cfg.experiment == "TX_NULL"
        super().__init__(cfg)
        self.nulling = nulling
        self.coherence = cfg.experiment == "COHERENCE"
        rx_b = self._radio("B", cfg.rx_b_cfo_hz)
        self._set_receivers([rx_b, self._radio("C", cfg.rx_c_cfo_hz)] if nulling else [rx_b])

        # feedback pipeline: estimates keyed by the cycle that produced them
        self.estimates: dict[int, dict[str, list[np.ndarray]]] = {}
        self.weights: np.ndarray | None = None
        self.weights_from_cycle: int | None = None

    @staticmethod
    def _dominant_taps(ests: list[np.ndarray]) -> np.ndarray:
        """Each node's largest-magnitude estimated tap."""
        taps = np.array(ests)
        return taps[np.arange(len(taps)), np.argmax(np.abs(taps), axis=1)]

    def _build_weights(self, k: int) -> tuple[np.ndarray | None, str]:
        """Weights to apply at cycle k, honoring feedback latency and halt:
        an (n_nodes, taps) array, row i the predistortion filter of node i."""
        cfg = self.cfg
        halted = self.coherence and k * self.mesh.cycle_period_s >= cfg.feedback_halt_time_s
        if halted:
            return self.weights, "halted"
        est_cycle = k - cfg.feedback_latency_cycles
        if est_cycle not in self.estimates:
            return self.weights, "" if self.weights is not None else "warmup"
        est = self.estimates[est_cycle]
        if self.nulling:
            h_b = self._dominant_taps(est["B"])
            h_c = self._dominant_taps(est["C"])
            delta = self.mesh.diag_loading_eps * float(np.mean(np.abs(h_c) ** 2)) + 1e-12
            weights = beamform.tx_null_beamformer(h_b, h_c, delta)[:, None]
        else:
            weights = np.array([beamform.stmf_beamformer(taps) for taps in est["B"]])
        self.weights = weights
        self.weights_from_cycle = est_cycle
        return weights, ""

    def _transmit(self, k, rec, flags):
        cfg = self.cfg
        pay_seg = self.layout.segment("bf_payload")
        weights, wflag = self._build_weights(k)
        if wflag:
            flags.append(wflag)
        # feedback causality: applied weights derive only from receptions at
        # least feedback_latency_cycles old
        if self.weights_from_cycle is not None and self.weights_from_cycle > k - cfg.feedback_latency_cycles:
            raise RuntimeError(f"feedback causality: cycle {k} applies weights from cycle {self.weights_from_cycle}")
        if weights is not None:
            bf_obj = beamform.Beamformer(
                weights=weights,
                method="TX_NULL" if self.nulling else "STMF",
                node_ids=tuple(f"n{i + 1}" for i in range(self.n)),
            )
            rec.beamformer_ref = _bf_ref(bf_obj)

        sent = []
        frames = waveform.node_frames(self.mesh, _tag64(f"{cfg.seed}:tx_payload_{k}"))
        for i, (node, contents) in enumerate(zip(self.nodes, frames)):
            samples, spans = self._frame(self.layout, contents, cfg.signal_power)
            if weights is not None:
                raw = samples[pay_seg.offset : pay_seg.offset + pay_seg.length]
                w = weights[i]
                if len(w) == 1:
                    distorted = np.conj(w[0]) * raw
                else:
                    distorted = np.convolve(raw, np.conj(w), mode="full")[: pay_seg.length]
                samples[pay_seg.offset : pay_seg.offset + pay_seg.length] = distorted
            sent.append((node, apply_node_imperfections(samples, node, self.fs, 1, spans), spans))
        return sent

    def _arrivals(self, sent, r):
        # every node reaches receiver r (B, then C) over its own link
        return [(sig, ch, spans) for (_, sig, spans), ch in zip(sent, self.links[r])]

    def _link_budget(self, z_mf: np.ndarray, acq: AcquisitionResult, f_hat: float):
        """Estimate one receiver's channels and powers from its buffer: (per-link
        taps, SISO link metrics, beamformed link metrics). Only the LS window is
        CFO-corrected; a segment's power is the same with the rotation or without."""
        cfg = self.cfg
        window = self._derotate(z_mf, f_hat, acq.lag, acq.lag + self.t_ref + cfg.t_h - 1)
        ests = estimation.estimate_channels_joint(
            ComplexSignal(window, self.fs), self.pre_mf, 0, cfg.t_h, self.ls_system
        )

        def power(segment: str) -> float:
            return metrics.segment_power(z_mf, self.layout.segment(segment), shift=acq.lag)

        p_lt = power("look_through")
        siso = [metrics.link_metrics(power(f"monitor_{i + 1}"), p_lt, cfg.noise_power) for i in range(self.n)]
        return [e.taps for e in ests], siso, metrics.link_metrics(power("bf_payload"), p_lt, cfg.noise_power)

    def _measure(self, k, rec, flags, receptions):
        est_entry = {}
        for rx, h in zip(self.receivers, receptions):
            if h is None:
                continue
            est_entry[rx.node_id], siso, bf = self._link_budget(*h)
            self._record_link_budget(rec, flags, rx.node_id, dict(enumerate(siso)), bf)
            if rx.node_id == "B":
                rec.detection_stat = [h[1].detection_stat] * self.n
                rec.cfo_est_hz = [h[2]] * self.n
        if len(est_entry) == len(self.receivers):
            self.estimates[k] = est_entry
        # this cycle read the estimates of cycle k - feedback_latency_cycles; no later cycle reads them
        self.estimates.pop(k - self.cfg.feedback_latency_cycles, None)


def run_scenario(cfg: ScenarioConfig) -> list[CycleRecord]:
    runner = _RxRunner if cfg.experiment in RX_EXPERIMENTS else _TxRunner
    return runner(cfg).run()
