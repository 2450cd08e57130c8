"""Property test of the frame configuration space.

Every configuration is either rejected by validate_scenario with a
ConfigError that names the offending field(s), or runs a cycle without
raising. A cycle that runs reports finite figures, or says why it cannot:
a frame whose ambles or SNR are too small to acquire yields cycles flagged
acq_fail or no_detection, and SISO estimates whose mean is not positive
leave the gain without a reference, flagged siso_nonpos. The receive
filter taps t_w are drawn for receive experiments and the channel-estimate
taps t_h for transmit ones; setting one of the fields an experiment does
not read (scenario.READ_BY) is rejected by that field's name. Each
experiment draws its own examples, and at least MIN_RUNS of them must run.
"""

import dataclasses
from operator import attrgetter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dcbf.cli import apply_overrides
from dcbf.core import ConfigError, MeshConfig
from dcbf.scenario import EXPERIMENTS, READ_BY, RX_EXPERIMENTS, ScenarioConfig, run_scenario, validate_scenario

FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig)} | {
    f"mesh.{f.name}" for f in dataclasses.fields(MeshConfig)
}
EVEN_LEN = st.integers(1, 1024).map(lambda k: 2 * k)
EXCUSES = ("acq_fail", "no_detection", "siso_nonpos")
# Runnable examples each experiment's draws must reach, so that coverage
# cannot fall to zero unnoticed when a bound or a strategy changes.
MIN_RUNS = 6


def test_rejected_by_name_or_runs():
    runs = {experiment: _check_experiment(experiment) for experiment in EXPERIMENTS}
    assert min(runs.values()) >= MIN_RUNS, f"configs that ran: {runs}, want ≥ {MIN_RUNS} each"


def _check_experiment(experiment: str) -> int:
    """Check one experiment's draws; returns how many of them ran."""
    runs = []

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(
        n_nodes=st.integers(1, 8),
        amble_len=EVEN_LEN,
        payload_len=EVEN_LEN,
        guard_len=st.integers(1, 1024),
        t_w=st.integers(1, 64),
        t_h=st.integers(1, 4),
        channel=st.sampled_from([("random_phase", 1), ("random_phase", 2), ("rayleigh", 1), ("rayleigh", 3)]),
        data=st.data(),
    )
    def check(n_nodes, amble_len, payload_len, guard_len, t_w, t_h, channel, data):
        mesh = MeshConfig(n_nodes=n_nodes, amble_len=amble_len, payload_len=payload_len, guard_len=guard_len)
        cfg = ScenarioConfig(
            experiment=experiment,
            n_cycles=1,
            mesh=mesh,
            interferer_power=1.78 if experiment == "RX_BF_INTERF" else 0.0,
            channel_kind=channel[0],
            channel_taps=channel[1],
            **(dict(t_w=t_w) if experiment in RX_EXPERIMENTS else dict(t_h=t_h)),
        )
        # any value but the default of a field the experiment does not read
        unread = data.draw(st.sampled_from([name for name, readers in READ_BY.items() if experiment not in readers]))
        default = attrgetter(unread)(ScenarioConfig())
        value = '"full"' if unread == "cov_source" else repr(default + 1)
        try:
            validate_scenario(apply_overrides(cfg, [f"{unread}={value}"]))
        except ConfigError as exc:
            assert exc.field_name == unread, exc
        else:
            raise AssertionError(f"{unread}={value} accepted under {experiment}")
        try:
            validate_scenario(cfg)
        except ConfigError as exc:
            assert set(exc.field_name.split(", ")) <= FIELDS, exc
            return
        (rec,) = run_scenario(cfg)
        runs.append(rec)
        if not any(excuse in rec.flags for excuse in EXCUSES):
            figures = [rec.gain_snr_db, rec.bf_snr_db, *rec.siso_snr_db]
            if experiment == "TX_NULL":
                figures += [rec.gain_c_db, rec.bf_snr_c_db]
            assert np.all(np.isfinite(figures)), (rec.flags, figures)

    check()
    return len(runs)
