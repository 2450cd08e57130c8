"""Bounded cost at the corners of the config space.

A config that validate_scenario admits must run within memory that follows
from its layout. At each corner of the config space (the largest admitted
amble, t_h, CFO grid, t_w and n_nodes) the traced peak of validate_scenario
plus one cycle stays under a budget computed from the config alone: the
frame bytes times FRAME_FACTOR, plus the joint-LS design, the MMSE Gram and
the acquisition and fine-CFO DTFT terms. The process caches are emptied
first, so that the peak includes building the references, the joint-LS
system and the DTFT factor sets.

Two corners take too long for tier-1 and run scaled down, each at the
largest size that fits; their full size is checked to be the bound of
admission, not run:
- t_h: one node on 5,180-sample ambles admits 1,295 taps, whose admission
  takes ~2.7 s, with a 296 MB traced peak, the joint-LS design and its
  conjugate. The same LS term is checked at 512 taps on 2,048-sample ambles.
- n_nodes: a receive mesh at t_w = 1 admits 1,024 nodes. Its traced peak
  grows by ~2.4 MB a node (312 MB at 128 nodes, 622 MB at 256), and its
  cycle with the square of the node count (5.4 s at 128 nodes, 20.4 s at
  256), since every node's signal meets all n_nodes + 1 receive filters.
  The per-node term is checked at 16 nodes.
"""

import math
import tracemalloc

import pytest

from dcbf import estimation, scenario, waveform
from dcbf.cli import apply_overrides
from dcbf.core import ConfigError
from dcbf.scenario import RX_EXPERIMENTS, ScenarioConfig, run_scenario, validate_scenario

C = 16  # bytes of one complex128 value

# Buffer-sized complex arrays alive at once for each frame or receive buffer:
# the reception, its matched-filter output, its row of the stacked
# receptions and that row's derotation phasor.
FRAME_FACTOR = 4

# D x D complex matrices an MMSE solve holds at once for D = n_nodes * t_w:
# the Gram gathered from the lagged products, its reshaped copy, the loaded
# copy the solve takes and one more of its size for LAPACK's work.
GRAM_COPIES = 4

# A grid of 4096 points spaced fine_cfo_step_hz, over ±2 coarse steps of 50 Hz.
FINE_4096 = 4 * 50.0 / 4095


def _cfg(experiment: str, *overrides: str) -> ScenarioConfig:
    return apply_overrides(ScenarioConfig(experiment=experiment, n_cycles=1), list(overrides))


# name -> (the config run, the full corner, and the step past it that admission refuses by that field)
CORNERS = {
    # the longest amble a frame carries: one TX node, 2-sample payloads and
    # 1-sample guards, integrated in full, and refined on the largest fine
    # grid, which makes the largest DTFT factor set
    "amble": (
        ("TX_BF", "mesh.n_nodes=1", "mesh.amble_len=45730", "mesh.payload_len=2", "mesh.guard_len=1",
         "mesh.est_integration_len=45730", f"fine_cfo_step_hz={FINE_4096}"),
        None,
        ("mesh.amble_len=45732", "mesh.n_nodes, mesh.amble_len, mesh.payload_len, mesh.guard_len"),
    ),
    # both CFO grids at 4096 points, the coarse one on the default mesh
    "cfo_grid": (
        ("RX_BF", "coarse_cfo_span_hz=102375.0", f"fine_cfo_step_hz={FINE_4096}"),
        None,
        ("coarse_cfo_span_hz=102400.0", "coarse_cfo_step_hz"),
    ),
    "t_h": (
        ("TX_BF", "mesh.n_nodes=1", "mesh.amble_len=2048", "t_h=512"),
        ("TX_BF", "mesh.n_nodes=1", "mesh.amble_len=5180", "t_h=1295"),
        ("t_h=1296", "t_h"),
    ),
    # the MMSE unknowns all on one node
    "t_w": (
        ("RX_BF", "mesh.n_nodes=1", "t_w=1024"),
        None,
        ("t_w=1025", "t_w"),
    ),
    # the interferer's frame on top of every node's buffer
    "n_nodes": (
        ("RX_BF_INTERF", "interferer_power=1.78", "mesh.n_nodes=16", "t_w=1"),
        ("RX_BF_INTERF", "interferer_power=1.78", "mesh.n_nodes=1024", "t_w=1"),
        ("mesh.n_nodes=1025", "t_w"),
    ),
}


def _dtft_bytes(rows: int, n: int, points: int) -> int:
    """A DTFT of rows n-sample windows on a grid of points (estimation._dtft):
    its phasor factors, and the windowed input and the inner sums, each with
    one temporary of its size."""
    root = math.ceil(math.sqrt(n))
    return C * ((root + -(-n // root)) * points + 2 * rows * (n + root * points))


def budget(cfg: ScenarioConfig) -> int:
    """Bytes that validate_scenario plus one cycle of cfg may trace at peak."""
    mesh, n = cfg.mesh, cfg.mesh.n_nodes
    rx = cfg.experiment in RX_EXPERIMENTS
    layout = waveform.rx_source_layout(mesh) if rx else waveform.tx_node_layout(mesh)
    lags, buf_len, _ = scenario._receive_buffer(cfg, layout, {})
    # every node's frame or buffer, and the source's and interferer's frames
    # (RX) or B's and C's buffers (TX)
    frames = FRAME_FACTOR * C * buf_len * (n + 2)
    if rx:
        d = n * cfg.t_w
        # the Gram, and the receive pulse's convolution matrix for the noise gain
        solve = C * (GRAM_COPIES * d * d + (len(waveform.PULSE) + cfg.t_w) * cfg.t_w)
    else:
        d = n * cfg.t_h
        # the design and its conjugate, the normal matrix, and the copy its conditioning takes
        solve = C * 2 * d * (mesh.amble_len + cfg.t_h - 1 + d)
    coarse = int(2 * cfg.coarse_cfo_span_hz / cfg.coarse_cfo_step_hz) + 1
    fine = len(scenario._fine_grid(cfg))
    # acquisition over lags windows; the fine CFO over the source's preamble or each node's postamble
    dtfts = _dtft_bytes(lags, min(mesh.est_integration_len, mesh.amble_len), coarse)
    dtfts += _dtft_bytes(1 if rx else n, mesh.amble_len, fine)
    return frames + solve + dtfts


def _clear_caches():
    scenario._receive_references.cache_clear()
    estimation._factor_set.cache_clear()
    waveform._shaped_amble.cache_clear()


def traced_peak(cfg: ScenarioConfig) -> int:
    """Traced peak bytes of validate_scenario plus one cycle, from empty caches."""
    _clear_caches()
    tracemalloc.start()
    try:
        validate_scenario(cfg)
        run_scenario(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _clear_caches()


@pytest.mark.parametrize("name", CORNERS)
def test_corner_peak_within_budget(name):
    cfg = _cfg(*CORNERS[name][0])
    assert traced_peak(cfg) < budget(cfg)


@pytest.mark.parametrize("name", CORNERS)
def test_corner_is_the_bound_of_admission(name):
    run, full, (step, field) = CORNERS[name]
    corner = full or run
    if name != "t_h":  # the full t_h corner's admission builds its joint-LS system, ~2.7 s
        validate_scenario(_cfg(*corner))
    with pytest.raises(ConfigError) as exc:
        validate_scenario(_cfg(*corner, step))
    assert exc.value.field_name == field
