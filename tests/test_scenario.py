"""Tests for the cycle-by-cycle experiment runners."""

import dataclasses
import importlib
import re
from functools import lru_cache
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from dcbf import beamform, estimation, metrics, scenario, waveform
from dcbf.cli import apply_overrides, cycle_csv_lines, load_config, main
from dcbf.core import ComplexSignal, ConfigError, MeshConfig, NodeState, substream
from dcbf.estimation import AcquisitionError
from dcbf.impairments import ChannelModel, NoiseSpec
from dcbf.scenario import (
    EXPERIMENTS,
    MAX_ACQUISITION_VALUES,
    MAX_LS_DESIGN_VALUES,
    MAX_MMSE_UNKNOWNS,
    READ_BY,
    RX_EXPERIMENTS,
    CycleRecord,
    ScenarioConfig,
    _RxRunner,
    _TxRunner,
    run_scenario,
    validate_scenario,
)
from dcbf.timesync import run_sync_round


def _records_equal(a: list[CycleRecord], b: list[CycleRecord]) -> bool:
    return [dataclasses.asdict(r) for r in a] == [dataclasses.asdict(r) for r in b]


def _lin_avg_db(vals):
    vals = [v for v in vals if np.isfinite(v)]
    return 10 * np.log10(np.mean([10 ** (v / 10) for v in vals])) if vals else float("nan")


TX_MESH = MeshConfig(cycle_period_s=0.25)

# Every per-cycle random process on at once: channel redraw and walk, OTS
# jitter and the mesh clocks' phase walk.
DYNAMICS = dict(
    channel_redraw_every=1,
    channel_walk_std_per_cycle=0.1,
    ots_jitter_rad=0.2,
    phase_walk_var_per_s=0.05,
)


class TestValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            validate_scenario(ScenarioConfig(experiment="FOO"))

    def test_bad_cycles(self):
        with pytest.raises(ConfigError, match="n_cycles"):
            validate_scenario(ScenarioConfig(n_cycles=0))

    def test_zero_noise_rejected(self):
        with pytest.raises(ConfigError, match="noise_power"):
            validate_scenario(ScenarioConfig(noise_power=0.0))

    def test_negative_power_rejected(self):
        with pytest.raises(ConfigError, match="interferer_power"):
            validate_scenario(ScenarioConfig(interferer_power=-1.0))

    @pytest.mark.parametrize("experiment", [e for e in EXPERIMENTS if e != "RX_BF_INTERF"])
    def test_interferer_power_needs_an_interferer(self, experiment):
        with pytest.raises(ConfigError, match="interferer_power"):
            validate_scenario(ScenarioConfig(experiment=experiment, interferer_power=1.0))
        validate_scenario(ScenarioConfig(experiment="RX_BF_INTERF", interferer_power=1.0))

    def test_silent_interferer_cfo_rejected(self):
        # at interferer_power 0 the interferer never transmits, so its LO offset is not read
        with pytest.raises(ConfigError) as exc:
            validate_scenario(ScenarioConfig(experiment="RX_BF_INTERF", interferer_cfo_hz=100.0))
        assert exc.value.field_name == "interferer_cfo_hz"
        validate_scenario(ScenarioConfig(experiment="RX_BF_INTERF", interferer_power=1.0, interferer_cfo_hz=100.0))

    @pytest.mark.parametrize("experiment", [e for e in EXPERIMENTS if e not in RX_EXPERIMENTS])
    def test_warmup_identity_needs_a_receive_combiner(self, experiment):
        # transmit experiments have no identity combiner to warm up with
        with pytest.raises(ConfigError, match="warmup_identity_s"):
            validate_scenario(ScenarioConfig(experiment=experiment, warmup_identity_s=100.0))
        for rx in RX_EXPERIMENTS:
            validate_scenario(ScenarioConfig(experiment=rx, warmup_identity_s=100.0))

    @pytest.mark.parametrize("kind, taps", [("random_phase", 2), ("random_phase", 0), ("rayleigh", 0), ("rayleigh", -1)])
    def test_channel_taps_rejected(self, kind, taps):
        with pytest.raises(ConfigError, match="channel_taps"):
            validate_scenario(ScenarioConfig(channel_kind=kind, channel_taps=taps))
        validate_scenario(ScenarioConfig(channel_kind="rayleigh", channel_taps=2))

    def test_field_types_numpy_scalars_count(self):
        mesh = MeshConfig(n_nodes=np.int32(2), sample_rate_hz=np.int64(2_000_000))
        validate_scenario(ScenarioConfig(n_cycles=np.int64(3), noise_power=np.float32(0.1), mesh=mesh))
        with pytest.raises(ConfigError, match="n_cycles"):
            validate_scenario(ScenarioConfig(n_cycles=True))
        with pytest.raises(ConfigError, match="mesh.guard_len"):
            validate_scenario(ScenarioConfig(mesh=MeshConfig(guard_len=np.float64(256.0))))

    def test_mesh_validated_too(self):
        with pytest.raises(ConfigError, match="n_nodes"):
            validate_scenario(ScenarioConfig(mesh=MeshConfig(n_nodes=0)))

    @pytest.mark.parametrize(
        "experiment, mesh, t_h, field",
        [
            ("TX_BF", dict(n_nodes=5), 4, "mesh.n_nodes"),  # layout overflow
            ("TX_NULL", dict(n_nodes=7, amble_len=112), 4, "mesh.n_nodes"),  # order 6 has 6 polynomials
            ("RX_BF", dict(amble_len=2), 4, "mesh.amble_len"),  # an order-1 MLS
            ("RX_BF", dict(payload_len=70000), 4, "mesh.payload_len"),  # layout overflow
            ("RX_BF", dict(amble_len=8191), 4, "mesh.amble_len"),  # half a symbol
            ("TX_BF", dict(), 1000, "t_h"),  # joint LS needs amble_len >= 4 t_h N
            ("COHERENCE", dict(amble_len=1024, payload_len=1024), 86, "t_h"),
        ],
    )
    def test_infeasible_frame_rejected(self, experiment, mesh, t_h, field):
        cfg = ScenarioConfig(experiment=experiment, mesh=MeshConfig(**mesh), t_h=t_h)
        with pytest.raises(ConfigError, match=re.escape(field)):
            validate_scenario(cfg)

    def test_singular_joint_ls_exits_2_before_any_frame(self, tmp_path, capsys, monkeypatch):
        # three 4096-sample preambles over 341 taps each (4·341·3 = 4092 samples,
        # within the amble) give a normal matrix of condition number 1.4e12
        built = []
        monkeypatch.setattr(waveform, "build_frame", lambda *args: built.append(args))
        cfg = ScenarioConfig(experiment="TX_BF", n_cycles=1, mesh=MeshConfig(amble_len=4096), t_h=341)
        with pytest.raises(ConfigError, match="t_h: .* numerically singular"):
            run_scenario(cfg)
        out = tmp_path / "out"
        overrides = ["--override", "mesh.amble_len=4096", "--override", "t_h=341"]
        assert main(["run", "--config", "tx_bf", "--out", str(out), *overrides]) == 2
        assert "config error: t_h: " in capsys.readouterr().err
        assert not out.exists() and built == []

    def test_joint_ls_design_bounded_before_it_is_built(self, tmp_path, capsys, monkeypatch):
        def joint_ls_system(*args):
            pytest.fail("the joint LS system was built")

        monkeypatch.setattr(estimation, "joint_ls_system", joint_ls_system)
        # one node carries the longest amble, and 4·t_h fills it: (45216 + 11303)·11304
        # complex values, a 20 GB design and conjugate
        overrides = ["mesh.n_nodes=1", "mesh.amble_len=45216", "mesh.payload_len=2", "t_h=11304"]
        cfg = apply_overrides(load_config("tx_bf"), overrides)
        with pytest.raises(ConfigError, match=re.escape("t_h: the joint LS design") + f".* {MAX_LS_DESIGN_VALUES}"):
            validate_scenario(cfg)
        out = tmp_path / "out"
        args = [arg for o in overrides for arg in ("--override", o)]
        assert main(["run", "--config", "tx_bf", "--out", str(out), *args]) == 2
        assert "config error: t_h: the joint LS design" in capsys.readouterr().err
        assert not out.exists()

    def test_joint_ls_design_bound_edge(self):
        # on the default mesh (8192-sample ambles, three nodes) t_h = 328 fits, 329 does not
        assert (8192 + 327) * 3 * 328 <= MAX_LS_DESIGN_VALUES < (8192 + 328) * 3 * 329
        with pytest.raises(ConfigError, match=re.escape("t_h: the joint LS design")):
            validate_scenario(ScenarioConfig(experiment="TX_BF", t_h=329))
        # the singular check's own configs (1023 unknowns on 4096-sample ambles) stay inside
        assert (4096 + 340) * 3 * 341 <= MAX_LS_DESIGN_VALUES

    @pytest.mark.parametrize(
        "experiment, mesh, t_h",
        [
            ("TX_BF", dict(n_nodes=4), 4),  # the most nodes the mesh-node frame holds
            ("TX_BF", dict(amble_len=1024, payload_len=1024), 85),  # 4 * 85 * 3 = 1020
            ("RX_BF", dict(n_nodes=7, amble_len=1024, payload_len=1024), 4),  # one polynomial
            ("RX_BF", dict(amble_len=16), 4),  # order 4
            ("TX_NULL", dict(n_nodes=7, amble_len=1024, payload_len=1024), 4),  # 7 of order 10's polynomials
            ("RX_BF", dict(amble_len=4), 4),  # order 2, the shortest MLS
        ],
    )
    def test_feasible_edge_runs(self, experiment, mesh, t_h):
        cfg = ScenarioConfig(experiment=experiment, n_cycles=1, mesh=MeshConfig(**mesh), t_h=t_h)
        assert len(run_scenario(cfg)) == 1

    @pytest.mark.parametrize(
        "experiment, label",
        [
            ("RX_BF", "A->n9"),
            ("RX_BF_INTERF", "n1->B"),
            ("TX_BF", "n1->X"),
            ("TX_NULL", "A->n1"),
            # only TX_NULL has the receiver C
            ("TX_BF", "n1->C"),
            ("COHERENCE", "n3->C"),
        ],
    )
    def test_unknown_channel_label_rejected(self, experiment, label):
        cfg = ScenarioConfig(experiment=experiment, channels={label: {"taps": [[1.0, 0.0]]}})
        with pytest.raises(ConfigError, match=re.escape(f"channels.{label}")):
            validate_scenario(cfg)

    @pytest.mark.parametrize(
        "spec",
        [
            [[1.0, 0.0]],
            {"tof": 0},
            {"taps": [[1.0, 0.0]], "tofs": 2},
            {"taps": [[1.0]]},
            {"taps": []},
            {"taps": [[0.0, 0.0]]},
            {"taps": [[1.0, 0.0]], "tof": -1},
        ],
    )
    def test_malformed_channel_rejected(self, spec):
        with pytest.raises(ConfigError, match=re.escape("channels.A->n1")):
            validate_scenario(ScenarioConfig(experiment="RX_BF", channels={"A->n1": spec}))

    @pytest.mark.parametrize(
        "experiment, channels",
        [
            ("TX_BF", None),
            ("RX_BF", None),
            ("TX_NULL", {"n2->C": {"taps": [[1.0, 0.0]] * 3, "tof": 40}}),  # C's link lengthens the buffer
            ("RX_BF", {"J->n1": {"taps": [[1.0, 0.0]], "tof": 90}}),  # a silent interferer's link too
        ],
    )
    def test_cycle_period_shorter_than_receive_buffer_rejected(self, experiment, channels):
        cfg = ScenarioConfig(experiment=experiment, channels=channels, mesh=TX_MESH)
        buf_len = _RxRunner(cfg).buf_len if experiment == "RX_BF" else _TxRunner(cfg).buf_len
        fs = cfg.mesh.sample_rate_hz
        validate_scenario(dataclasses.replace(cfg, mesh=MeshConfig(cycle_period_s=buf_len / fs)))
        short = dataclasses.replace(cfg, mesh=MeshConfig(cycle_period_s=(buf_len - 1) / fs))
        with pytest.raises(ConfigError, match=re.escape("mesh.cycle_period_s")):
            validate_scenario(short)

    def test_t_w_bounded_before_any_allocation(self):
        import tracemalloc

        validate_scenario(ScenarioConfig(t_w=8))  # bundled
        validate_scenario(ScenarioConfig(t_w=MAX_MMSE_UNKNOWNS // 3))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="t_w"):
                _RxRunner(ScenarioConfig(t_w=100000))
            with pytest.raises(ConfigError, match="t_w"):
                validate_scenario(ScenarioConfig(t_w=MAX_MMSE_UNKNOWNS // 3 + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cfo_grids_bounded_before_any_allocation(self):
        import tracemalloc

        # 2·span/step + 1 and 4·coarse step/fine step + 1 points: 4096 each, the bound
        validate_scenario(ScenarioConfig(coarse_cfo_span_hz=2047.5, coarse_cfo_step_hz=1.0))
        validate_scenario(ScenarioConfig(coarse_cfo_step_hz=1023.75, fine_cfo_step_hz=1.0))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="coarse_cfo_step_hz"):
                _RxRunner(ScenarioConfig(coarse_cfo_step_hz=1e-6))  # 4e9 points
            with pytest.raises(ConfigError, match="coarse_cfo_step_hz"):
                _RxRunner(ScenarioConfig(coarse_cfo_span_hz=2048.0, coarse_cfo_step_hz=1.0))
            with pytest.raises(ConfigError, match="fine_cfo_step_hz"):
                _RxRunner(ScenarioConfig(fine_cfo_step_hz=1e-6))  # 2e8 points
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_fine_grid_needs_three_points(self):
        # the fine grid spans two 50 Hz coarse steps either side in fine
        # steps: 3 points up to a 133.3 Hz step, 2 above it; a 1024-sample
        # amble's 1953 Hz main lobe admits steps up to 195 Hz
        mesh = MeshConfig(amble_len=1024)
        runner = _RxRunner(ScenarioConfig(n_cycles=1, fine_cfo_step_hz=100.0, mesh=mesh))  # 2·coarse, runs
        assert list(runner.fine_grid) == [-100.0, 0.0, 100.0]
        assert len(runner.run()) == 1
        assert len(_RxRunner(ScenarioConfig(fine_cfo_step_hz=133.0, mesh=mesh)).fine_grid) == 3
        for step in (134.0, 250.0):
            with pytest.raises(ConfigError, match="fine_cfo_step_hz: .* holds 2 points"):
                validate_scenario(ScenarioConfig(fine_cfo_step_hz=step, mesh=mesh))

    @pytest.mark.parametrize("experiment", ["RX_BF", "TX_BF"])
    def test_fine_step_bounded_by_main_lobe(self, experiment):
        # 0.1 of sample_rate_hz/amble_len: 24.41 Hz at the defaults, 48.83 Hz at 1 MHz and 2048 samples
        for mesh, limit in ((MeshConfig(), 24.4140625), (MeshConfig(sample_rate_hz=1e6, amble_len=2048), 48.828125)):
            validate_scenario(ScenarioConfig(experiment=experiment, mesh=mesh, fine_cfo_step_hz=limit))
            for step in (limit * 1.001, 100.0, 133.0):  # the last two met the three-point rule alone
                with pytest.raises(ConfigError, match="fine_cfo_step_hz: .* main lobe"):
                    validate_scenario(ScenarioConfig(experiment=experiment, mesh=mesh, fine_cfo_step_hz=step))

    def test_acquisition_bounded_before_any_allocation(self):
        import tracemalloc

        def tof(samples):
            return ScenarioConfig(channels={"A->n1": {"taps": [[1.0, 0.0]], "tof": samples}})

        # 17 lags at the bundled sizes, at the largest coarse grid admitted
        validate_scenario(ScenarioConfig(coarse_cfo_span_hz=2047.5, coarse_cfo_step_hz=1.0))
        # lags * ceil(sqrt(2048)) * 81 coarse points: 1,125 lags fit the bound, 1,126 do not
        assert 1125 * 46 * 81 <= MAX_ACQUISITION_VALUES < 1126 * 46 * 81
        validate_scenario(tof(1125 - 17))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=re.escape("channels.A->n1")):
                validate_scenario(tof(1126 - 17))
            with pytest.raises(ConfigError, match=re.escape("channels.A->n1")):
                _RxRunner(tof(324000))  # 10.7 GB of DTFT input
            with pytest.raises(ConfigError, match="channel_taps"):
                _RxRunner(ScenarioConfig(channel_kind="rayleigh", channel_taps=300000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# A value other than the default of each field that only some experiments
# read (scenario.READ_BY), as a JSON override. Within 3 cycles each changes
# cycles.csv of the bundled config of every experiment that reads it.
OFF_DEFAULT = {
    "interferer_power": "1.0",
    "interferer_cfo_hz": "250.0",
    "source_cfo_hz": "100.0",
    "t_w": "4",
    "cov_source": '"full"',
    "warmup_identity_s": "0.4",  # two identity cycles at the 0.2 s period
    "rx_b_cfo_hz": "100.0",
    "t_h": "2",
    "feedback_latency_cycles": "2",
    "rx_c_cfo_hz": "0.0",
    "feedback_halt_time_s": "0.5",  # halts at cycle 2 of the 0.25 s period
    "mesh.diag_loading_eps": "0.01",
}


@lru_cache(maxsize=8)
def _cycles_csv(cfg: ScenarioConfig) -> list[str]:
    return cycle_csv_lines(run_scenario(cfg), cfg.mesh.n_nodes, "m")


class TestReadBy:
    """An experiment accepts only the fields it reads: a setting of any other
    field of READ_BY than its default is a config error naming the field,
    before any output; a setting of a field it reads shows in cycles.csv."""

    UNREAD = [(name, e) for name, readers in READ_BY.items() for e in EXPERIMENTS if e not in readers]
    READ = [(name, e) for name, readers in READ_BY.items() for e in readers]

    def test_table(self):
        assert set(OFF_DEFAULT) == set(READ_BY)
        assert all(set(readers) < set(EXPERIMENTS) for readers in READ_BY.values())
        # 29 settings that ran and did nothing before the table, 7 rejected already
        assert len(self.UNREAD) == 36

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_defaults_legal_under_every_experiment(self, experiment):
        validate_scenario(ScenarioConfig(experiment=experiment))

    @pytest.mark.parametrize("name, experiment", UNREAD)
    def test_unread_setting_rejected_naming_field(self, name, experiment):
        cfg = apply_overrides(ScenarioConfig(experiment=experiment), [f"{name}={OFF_DEFAULT[name]}"])
        with pytest.raises(ConfigError) as exc:
            validate_scenario(cfg)
        assert exc.value.field_name == name

    @pytest.mark.parametrize("name", READ_BY)
    def test_unread_override_exits_2_before_any_output(self, tmp_path, capsys, name):
        config = next(e for e in EXPERIMENTS if e not in READ_BY[name]).lower()
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out), "--override", f"{name}={OFF_DEFAULT[name]}"]) == 2
        assert f"config error: {name}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, experiment", READ)
    def test_read_setting_changes_cycles_csv(self, name, experiment):
        base = apply_overrides(load_config(experiment.lower()), ["n_cycles=3"])
        changed = apply_overrides(base, [f"{name}={OFF_DEFAULT[name]}"])
        assert attrgetter(name)(changed) != attrgetter(name)(base)
        assert _cycles_csv(changed) != _cycles_csv(base)


class TestWorkingSet:
    # Bounds on the traced peak of three cycles, in bytes, each the measured
    # peak plus 7.5%. An RX cycle stacks the detected receive buffers and lets
    # the receivers' own copies go before derotating the stack in place, so the
    # derotation's phasor reuses their space: the peak holds the stack with its
    # phasor and the beamformers' work, 7.29 MB for rx_bf and 7.78 MB for
    # rx_bf_interf, whose 256-QAM interferer frame is drawn as int32 bits and
    # shaped in place (9.10 MB for either while the stack was derotated on top
    # of the receptions). A TX cycle lets its three 1.46 MB frames go once the
    # last receiver's matched filter has run, before its acquisition and fine
    # CFO: 7.44 MB measured, 9.42 MB while the frames lived through the whole
    # receiver.
    PEAK_BOUND = {"rx_bf": 7.83e6, "rx_bf_interf": 8.36e6, "coherence": 8e6}

    @pytest.mark.parametrize("name", ["rx_bf", "rx_bf_interf", "coherence"])
    def test_cycle_peak_traced_memory(self, name):
        import tracemalloc

        cfg = dataclasses.replace(load_config(name), n_cycles=3)
        run_scenario(cfg)  # the process-wide references and DTFT factor sets
        tracemalloc.start()
        try:
            run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_BOUND[name]


class TestDeterminism:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_rerun_identical(self, experiment):
        mesh = MeshConfig() if experiment.startswith("RX") else TX_MESH
        interferer_power = 1.78 if experiment == "RX_BF_INTERF" else 0.0
        cfg = ScenarioConfig(
            experiment=experiment, n_cycles=2, seed=9, mesh=mesh, interferer_power=interferer_power, **DYNAMICS
        )
        assert _records_equal(run_scenario(cfg), run_scenario(cfg))

    def test_different_seed_differs(self):
        a = run_scenario(ScenarioConfig(experiment="RX_BF", n_cycles=1, seed=1))
        b = run_scenario(ScenarioConfig(experiment="RX_BF", n_cycles=1, seed=2))
        assert not _records_equal(a, b)


class TestRxBeamforming:
    def test_gain_near_bound_without_interference(self):
        recs = run_scenario(ScenarioConfig(experiment="RX_BF", n_cycles=5, seed=21))
        gain = _lin_avg_db([r.gain_snr_db for r in recs])
        assert 4.3 <= gain <= 4.8

    def test_interference_rejected(self):
        cfg = ScenarioConfig(
            experiment="RX_BF_INTERF", n_cycles=5, interferer_power=1.78, seed=22
        )
        recs = run_scenario(cfg)
        inr_red = _lin_avg_db([r.inr_reduction_db for r in recs])
        sinr_impr = _lin_avg_db([r.sinr_improvement_db for r in recs])
        assert inr_red >= 10.0
        assert sinr_impr >= 10.0
        siso_inr = _lin_avg_db([v for r in recs for v in r.siso_inr_db])
        assert 12.0 <= siso_inr <= 19.0

    def test_warmup_identity_beamformer_then_improvement(self):
        cfg = ScenarioConfig(
            experiment="RX_BF_INTERF",
            n_cycles=4,
            interferer_power=1.78,
            warmup_identity_s=0.4,  # first two cycles at 0.2 s period
            seed=23,
        )
        recs = run_scenario(cfg)
        assert all("warmup" in r.flags for r in recs[:2])
        assert all("warmup" not in r.flags for r in recs[2:])
        # the all-ones combiner cannot beat the SISO average by more than the
        # coherent margin (combining may also be destructive, so only the
        # upper side is bounded); optimization then clearly improves SINR
        for r in recs[:2]:
            siso = _lin_avg_db(r.siso_sinr_db)
            assert r.bf_sinr_db <= siso + 3.0
        assert min(r.sinr_improvement_db for r in recs[2:]) > 8.0

    def test_acquisition_failure_degrades_gracefully(self):
        # one dead link: that node's SISO metrics are omitted and beamforming
        # proceeds with the remaining nodes
        channels = {}
        for i in range(3):
            gain = 1e-6 if i == 2 else 1.0
            channels[f"A->n{i + 1}"] = {"taps": [[gain, 0.0]], "tof": 0}
        cfg = ScenarioConfig(experiment="RX_BF", n_cycles=2, seed=24, channels=channels)
        recs = run_scenario(cfg)
        for r in recs:
            assert "acq_fail:n3" in r.flags
            assert np.isnan(r.siso_snr_db[2])
            assert np.isfinite(r.siso_snr_db[0]) and np.isfinite(r.siso_snr_db[1])
            # two-node combining still happens
            assert np.isfinite(r.gain_snr_db)
            assert 2.5 <= r.gain_snr_db <= 3.5  # ~10log10(2)

    def test_failed_acquisition_keeps_best_statistic(self):
        channels = {"A->n3": {"taps": [[1e-6, 0.0]], "tof": 0}}
        cfg = ScenarioConfig(experiment="RX_BF", n_cycles=1, seed=24, channels=channels)
        runner = _RxRunner(cfg)
        sent = runner._transmit(0, CycleRecord(cycle=0, t_virtual_s=0.0), [])
        with pytest.raises(AcquisitionError) as err:
            runner._receive(2, runner._arrivals(sent, 2))
        assert 0.0 < err.value.best_stat < cfg.detection_threshold
        assert err.value.threshold == cfg.detection_threshold

    def test_nonpositive_siso_mean_flagged(self, monkeypatch):
        # every node's SISO payload reads no power: each SISO SNR estimate is
        # negative, so the gain has no reference; the beamformed SNR stands
        rx_output_powers = beamform.rx_output_powers

        def silent_siso(*args):
            powers, gains = rx_output_powers(*args)
            powers[:-1, 0] = 0.0
            return powers, gains

        monkeypatch.setattr(beamform, "rx_output_powers", silent_siso)
        (rec,) = run_scenario(ScenarioConfig(experiment="RX_BF", n_cycles=1, seed=21))
        assert rec.flags == "siso_nonpos:mesh"
        assert rec.siso_snr_db == [metrics.DB_FLOOR] * 3
        assert np.isnan(rec.gain_snr_db)
        assert np.isfinite(rec.bf_snr_db) and rec.bf_snr_db > 0

    def test_mesh_nodes_have_ideal_ots_clocks(self):
        runner = _RxRunner(ScenarioConfig(experiment="RX_BF", n_cycles=1, seed=3))
        runner.run()
        for node in runner.nodes:
            assert node.cfo_hz == 0.0
            assert node.phase_rad == 0.0  # no walk, no jitter configured


class TestTxBeamforming:
    @staticmethod
    def _faded_receiver(n_faded):
        """A TX_BF runner whose first n_faded nodes reach B at -120 dB, and
        what B hears of its first cycle."""
        channels = {f"n{i + 1}->B": {"taps": [[1e-6, 0.0]], "tof": 0} for i in range(n_faded)}
        runner = _TxRunner(ScenarioConfig(experiment="TX_BF", n_cycles=1, seed=25, mesh=TX_MESH, channels=channels))
        sent = runner._transmit(0, CycleRecord(cycle=0, t_virtual_s=0.0), [])
        return runner, runner._arrivals(sent, 0)

    @staticmethod
    def _preamble_acquisitions(runner, z_mf):
        """Every preamble's acquisition of a matched-filtered buffer, none rejected."""
        sig = ComplexSignal(z_mf, runner.fs)
        search = dict(lag_range=(0, runner.lag_hi), cfo_grid_hz=runner.coarse_grid, threshold=0.0)
        return [estimation.acquire(sig, [ref], **search) for ref in runner.acq_refs]

    def test_acquires_on_the_one_heard_preamble(self):
        runner, arrivals = self._faded_receiver(2)
        z_mf, acq, _ = runner._receive(0, arrivals)
        per_preamble = self._preamble_acquisitions(runner, z_mf)
        assert acq == per_preamble[2]
        assert max(a.detection_stat for a in per_preamble[:2]) < runner.cfg.detection_threshold <= acq.detection_stat

    def test_failed_acquisition_reports_the_best_preamble(self, monkeypatch):
        runner, arrivals = self._faded_receiver(3)
        buffers = []
        acquire = estimation.acquire

        def keep_buffer(z, *args, **kwargs):
            buffers.append(z.samples)
            return acquire(z, *args, **kwargs)

        monkeypatch.setattr(estimation, "acquire", keep_buffer)
        with pytest.raises(AcquisitionError) as err:
            runner._receive(0, arrivals)
        monkeypatch.undo()
        assert len(buffers) == 1  # one call over the three preambles
        stats = [a.detection_stat for a in self._preamble_acquisitions(runner, buffers[0])]
        assert err.value.best_stat == max(stats)
        assert 0.0 < err.value.best_stat < runner.cfg.detection_threshold

    def test_steady_state_gain_near_n_squared(self):
        recs = run_scenario(ScenarioConfig(experiment="TX_BF", n_cycles=4, seed=31, mesh=TX_MESH))
        steady = [r for r in recs if "warmup" not in r.flags]
        assert steady
        gain = _lin_avg_db([r.gain_snr_db for r in steady])
        assert abs(gain - 9.542) <= 0.5

    def test_weak_link_counts_in_the_siso_mean(self):
        # the bundled tx_bf config with node 3's link to B at -50 dB: its SISO
        # SNR estimate straddles zero, and the gain must not jump with its sign
        cfg = ScenarioConfig(
            experiment="TX_BF", n_cycles=10, seed=13, mesh=TX_MESH,
            channels={"n3->B": {"taps": [[0.003, 0]], "tof": 0}},
        )
        ceiling = 10 * np.log10(3 * 2.003**2 / (2 + 0.003**2))  # 7.79 dB
        steady = [r for r in run_scenario(cfg) if "warmup" not in r.flags]
        assert len(steady) == 9
        for r in steady:
            assert r.flags == ""
            assert abs(r.gain_snr_db - ceiling) <= 0.3

    def test_nonpositive_siso_mean_flagged(self, monkeypatch):
        # the TDMA monitor slots read no power at B or C: the gains are NaN and
        # flagged per receiver, the beamformed SNRs are still reported
        segment_power = metrics.segment_power

        def silent_monitors(x, seg, shift=0):
            return 0.0 if seg.name.startswith("monitor_") else segment_power(x, seg, shift)

        monkeypatch.setattr(metrics, "segment_power", silent_monitors)
        cfg = ScenarioConfig(experiment="TX_NULL", n_cycles=2, seed=32, channel_kind="rayleigh", mesh=TX_MESH)
        recs = run_scenario(cfg)
        assert [r.flags for r in recs] == ["warmup;siso_nonpos:B;siso_nonpos:C", "siso_nonpos:B;siso_nonpos:C"]
        for r in recs:
            assert r.siso_snr_db == [metrics.DB_FLOOR] * 3
            assert np.isnan(r.gain_snr_db) and np.isnan(r.gain_c_db)
            assert np.isfinite(r.bf_snr_db) and np.isfinite(r.bf_snr_c_db)

    def test_first_cycle_flagged_warmup(self):
        recs = run_scenario(ScenarioConfig(experiment="TX_BF", n_cycles=2, seed=31, mesh=TX_MESH))
        assert "warmup" in recs[0].flags
        assert "warmup" not in recs[1].flags

    def test_feedback_latency_two_cycles(self):
        recs = run_scenario(
            ScenarioConfig(
                experiment="TX_BF", n_cycles=4, seed=31, mesh=TX_MESH, feedback_latency_cycles=2
            )
        )
        assert "warmup" in recs[0].flags and "warmup" in recs[1].flags
        assert "warmup" not in recs[2].flags

    class _KeepAll(dict):
        """A feedback history that never drops an entry."""

        def pop(self, key, default=None):
            return self.get(key, default)

    @pytest.mark.parametrize("experiment, latency", [("TX_BF", 2), ("TX_BF", 1), ("COHERENCE", 1)])
    def test_feedback_history_bounded(self, experiment, latency):
        # feedback halts after cycle 2 of the coherence run; later estimates are never read
        halt = dict(feedback_halt_time_s=0.75) if experiment == "COHERENCE" else {}
        cfg = ScenarioConfig(
            experiment=experiment, n_cycles=6, seed=31, mesh=TX_MESH, feedback_latency_cycles=latency, **halt
        )
        runner = _TxRunner(cfg)
        recs = runner.run()
        assert sorted(runner.estimates) == list(range(cfg.n_cycles - latency, cfg.n_cycles))
        keep_all = _TxRunner(cfg)
        keep_all.estimates = self._KeepAll()
        assert _records_equal(keep_all.run(), recs)
        assert len(keep_all.estimates) == cfg.n_cycles

    def test_feedback_causality_enforced(self, monkeypatch):
        # weights that claim to come from the cycle they are applied in must
        # stop the run, also under python -O
        def leaky_weights(self, k):
            self.weights_from_cycle = k
            return [np.ones(1, dtype=complex)] * self.n, ""

        monkeypatch.setattr(_TxRunner, "_build_weights", leaky_weights)
        with pytest.raises(RuntimeError, match="causality"):
            run_scenario(ScenarioConfig(experiment="TX_BF", n_cycles=1, mesh=TX_MESH))

    def test_nulling_simultaneous_gain_and_null(self):
        recs = run_scenario(
            ScenarioConfig(experiment="TX_NULL", n_cycles=4, seed=32, channel_kind="rayleigh",
                           mesh=TX_MESH)
        )
        steady = [r for r in recs if "warmup" not in r.flags]
        gain_b = _lin_avg_db([r.gain_snr_db for r in steady])
        gain_c = _lin_avg_db([r.gain_c_db for r in steady])
        assert gain_b > 3.0
        assert gain_c < -10.0

    def test_two_node_orthogonal_channels_deep_null(self):
        # h_B = [1, 1] and h_C = [1, -1] are orthogonal: with near-noiseless
        # estimates the power at C sits >= 40 dB below B
        channels = {
            "n1->B": {"taps": [[1.0, 0.0]]},
            "n2->B": {"taps": [[1.0, 0.0]]},
            "n1->C": {"taps": [[1.0, 0.0]]},
            "n2->C": {"taps": [[-1.0, 0.0]]},
        }
        cfg = ScenarioConfig(
            experiment="TX_NULL", n_cycles=3, seed=33, noise_power=1e-8,
            channels=channels, mesh=dataclasses.replace(TX_MESH, n_nodes=2),
        )
        recs = run_scenario(cfg)
        steady = [r for r in recs if "warmup" not in r.flags]
        gain_b = _lin_avg_db([r.gain_snr_db for r in steady])
        gain_c = _lin_avg_db([r.gain_c_db for r in steady])
        assert gain_b - gain_c >= 40.0


class TestCoherence:
    def test_no_drift_keeps_gain_constant_after_halt(self):
        cfg = ScenarioConfig(
            experiment="COHERENCE", n_cycles=14, seed=41, mesh=TX_MESH,
            phase_walk_var_per_s=0.0, feedback_halt_time_s=1.0,
        )
        recs = run_scenario(cfg)
        halted = [r for r in recs if "halted" in r.flags]
        assert len(halted) >= 8
        gains = [r.gain_snr_db for r in halted]
        assert max(gains) - min(gains) < 0.1

    def test_drift_degrades_gain_after_halt(self):
        # strong drift: terminal phase-error variance ~0.9 rad^2, so the
        # decay clears single-seed fluctuations by a wide margin
        cfg = ScenarioConfig(
            experiment="COHERENCE", n_cycles=16, seed=42, mesh=TX_MESH,
            phase_walk_var_per_s=0.3, feedback_halt_time_s=1.0,
        )
        recs = run_scenario(cfg)
        halted = [r for r in recs if "halted" in r.flags]
        early = _lin_avg_db([r.gain_snr_db for r in halted[:3]])
        late = _lin_avg_db([r.gain_snr_db for r in halted[-3:]])
        assert late < early - 0.5

    def test_halt_respects_time(self):
        cfg = ScenarioConfig(
            experiment="COHERENCE", n_cycles=8, seed=43, mesh=TX_MESH, feedback_halt_time_s=1.0
        )
        recs = run_scenario(cfg)
        for r in recs:
            if r.t_virtual_s >= 1.0:
                assert "halted" in r.flags
            elif r.cycle > 0:
                assert "halted" not in r.flags


class TestJitterMonotonicity:
    def test_more_jitter_never_helps(self):
        # 20-seed average TX gain at three jitter levels must be ordered
        levels = (0.0, 0.35, 0.7)
        averages = []
        for jitter in levels:
            gains = []
            for seed in range(20):
                cfg = ScenarioConfig(
                    experiment="TX_BF", n_cycles=3, seed=100 + seed, mesh=TX_MESH,
                    ots_jitter_rad=jitter,
                )
                recs = run_scenario(cfg)
                gains += [r.gain_snr_db for r in recs if "warmup" not in r.flags]
            averages.append(np.mean([10 ** (g / 10) for g in gains]))
        assert averages[0] > averages[1] > averages[2]


class TestChannelDynamics:
    def test_channel_walk_changes_metrics(self):
        base = ScenarioConfig(experiment="TX_BF", n_cycles=3, seed=51, mesh=TX_MESH)
        walk = dataclasses.replace(base, channel_walk_std_per_cycle=0.2)
        a = run_scenario(base)
        b = run_scenario(walk)
        assert not _records_equal(a, b)

    def test_redraw_changes_channels(self):
        cfg = ScenarioConfig(
            experiment="TX_NULL", n_cycles=5, seed=52, channel_redraw_every=2, mesh=TX_MESH
        )
        recs = run_scenario(cfg)
        # a redraw invalidates the stale null on the following cycle
        assert len(recs) == 5

    def test_explicit_channels_respected(self):
        channels = {}
        for i in range(3):
            channels[f"A->n{i + 1}"] = {"taps": [[1.0, 0.0]], "tof": 2 * i}
            channels[f"J->n{i + 1}"] = {"taps": [[1.0, 0.0]], "tof": 0}
        cfg = ScenarioConfig(experiment="RX_BF", n_cycles=1, seed=53, channels=channels)
        recs = run_scenario(cfg)
        assert np.isfinite(recs[0].gain_snr_db)
        assert 4.0 <= recs[0].gain_snr_db <= 5.0


class TestPayloadReproduction:
    def test_beamformed_payload_matches_transmitted_up_to_scale(self):
        # all impairments zeroed, vanishing loading: the beamformed payload
        # equals the (matched-filtered) transmitted payload up to one complex
        # scalar, projection residual <= 1e-6
        from dcbf.beamform import apply_rx_beamformer, build_delay_matrix, mmse_rx_beamformer
        from dcbf.core import ComplexSignal, substream

        mesh = MeshConfig()
        pulse = waveform.PULSE
        layout = waveform.rx_source_layout(mesh)
        frame = waveform.build_frame(layout, waveform.source_frame(mesh, 61))
        pre_mf = np.convolve(waveform.source_ambles(mesh)["preamble"], pulse, "same")
        rng = substream(61, "t", "noise")
        zs = []
        for i in range(3):
            noise = 1e-6 * (rng.normal(size=len(frame)) + 1j * rng.normal(size=len(frame)))
            z_mf = np.convolve(frame + noise, pulse, mode="same")
            zs.append(z_mf)
        mats = [build_delay_matrix(ComplexSignal(z, mesh.sample_rate_hz), 0, mesh.amble_len, 8, f"n{i}")
                for i, z in enumerate(zs)]
        trace_scale = sum(np.sum(np.abs(m.data) ** 2) for m in mats)
        bf = mmse_rx_beamformer(mats, pre_mf, delta=1e-10 * trace_scale / 24)
        x = apply_rx_beamformer(bf, zs, 0, length=layout.total_length)
        pay_seg = layout.segment("payload")
        y = x[pay_seg.offset + bf.output_delay : pay_seg.offset + bf.output_delay + pay_seg.length]
        s = np.convolve(layout.extract(frame, "payload"), pulse, mode="same")
        proj = abs(np.vdot(s, y)) ** 2 / (np.sum(np.abs(s) ** 2) * np.sum(np.abs(y) ** 2))
        assert 1 - proj <= 1e-6


class TestFrameDesign:
    """The runners take their transmitted frames and their references from waveform."""

    @staticmethod
    def _mf(x):
        return np.convolve(x, waveform.PULSE, mode="same")

    def test_rx_references_are_matched_source_preamble(self):
        runner = _RxRunner(ScenarioConfig(experiment="RX_BF", n_cycles=1))
        layout = waveform.rx_source_layout(runner.mesh)
        assert runner.layout == layout
        frame = waveform.build_frame(layout, waveform.source_frame(runner.mesh, 5))
        assert len(runner.pre_mf) == 1
        assert np.array_equal(runner.pre_mf[0], self._mf(layout.extract(frame, "preamble")))
        assert runner.cfo_offsets == [0]
        assert len(runner.cfo_refs) == 1 and np.array_equal(runner.cfo_refs[0], runner.pre_mf[0])

    @pytest.mark.parametrize("n_nodes", [2, 3])
    def test_tx_references_are_matched_node_ambles(self, n_nodes):
        mesh = dataclasses.replace(TX_MESH, n_nodes=n_nodes)
        runner = _TxRunner(ScenarioConfig(experiment="TX_BF", n_cycles=1, mesh=mesh))
        layout = waveform.tx_node_layout(mesh)
        assert runner.layout == layout
        frames = waveform.node_frames(mesh, 5)
        assert len(frames) == len(runner.pre_mf) == len(runner.cfo_offsets) == len(runner.cfo_refs) == n_nodes
        for i, contents in enumerate(frames):
            frame = waveform.build_frame(layout, contents)
            post = layout.segment(f"postamble_{i + 1}")
            assert np.array_equal(runner.pre_mf[i], self._mf(layout.extract(frame, "preamble")))
            assert runner.cfo_offsets[i] == post.offset
            assert np.array_equal(runner.cfo_refs[i], self._mf(layout.extract(frame, post.name)))

    @pytest.mark.parametrize("family, mesh", [("RX", MeshConfig()), ("TX", MeshConfig(n_nodes=2, amble_len=4096))])
    def test_cached_references_are_read_only_and_bitwise_fresh(self, family, mesh):
        cfg = ScenarioConfig(experiment=f"{family}_BF", mesh=mesh)
        key = scenario._reference_key(cfg)
        pre_mf, acq_refs, cfo_segments, cfo_refs, ls_system = scenario._receive_references(*key)
        fresh = scenario._receive_references.__wrapped__(*key)
        assert cfo_segments == fresh[2]
        cached = list(pre_mf + acq_refs + cfo_refs)
        new = list(fresh[0] + fresh[1] + fresh[3])
        if family == "TX":
            # the runner keeps the cached system, which fits as one built afresh
            runner = _TxRunner(cfg)
            assert runner.ls_system is ls_system
            cached += ls_system
            new += estimation.joint_ls_system(runner.pre_mf, cfg.t_h)
        else:
            # the source's preamble is both the acquisition and the CFO reference
            assert cfo_refs is pre_mf and ls_system is None and fresh[4] is None
        assert len(cached) == len(new)
        for a, b in zip(cached, new):
            assert a.tobytes() == b.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                a *= 1

    @pytest.mark.parametrize("family", ["RX", "TX"])
    def test_cold_references_build_no_complex_signal(self, monkeypatch, family):
        # the references are templates: plain arrays, none wrapped as a reception
        built = []
        real = ComplexSignal.__post_init__
        monkeypatch.setattr(ComplexSignal, "__post_init__", lambda sig: built.append(len(sig.samples)) or real(sig))
        scenario._receive_references.cache_clear()
        pre_mf, acq_refs, _, cfo_refs, _ = scenario._receive_references(
            *scenario._reference_key(ScenarioConfig(experiment=f"{family}_BF"))
        )
        assert built == []
        assert all(type(r) is np.ndarray for r in pre_mf + acq_refs + cfo_refs)

    def test_reference_cache_bounded(self):
        scenario._receive_references.cache_clear()
        cfgs = [ScenarioConfig(mesh=MeshConfig(amble_len=amble_len)) for amble_len in range(1024, 4096, 256)]
        # TX entries that differ in t_h alone, each holding its own joint-LS system
        cfgs += [ScenarioConfig(experiment="TX_BF", mesh=MeshConfig(amble_len=4096), t_h=t_h) for t_h in range(1, 7)]
        for cfg in cfgs:
            scenario._receive_references(*scenario._reference_key(cfg))
        info = scenario._receive_references.cache_info()
        assert info.misses == len(cfgs)
        assert info.maxsize is not None and info.currsize <= info.maxsize

    @pytest.mark.parametrize(
        "experiment, meshes",
        [
            # six TX_BF runners that differ only in a field no reference reads
            ("TX_BF", [MeshConfig(cycle_period_s=p) for p in (0.2, 0.25, 0.3, 0.35, 0.4, 0.2)]),
            # under RX the references do not depend on the mesh size either
            ("RX_BF", [MeshConfig(n_nodes=n, cycle_period_s=p) for n, p in ((3, 0.2), (2, 0.2), (4, 0.3), (1, 0.25))]),
        ],
    )
    def test_caches_keyed_on_the_fields_they_read(self, experiment, meshes):
        cache = scenario._receive_references
        cache.cache_clear()
        runner = _TxRunner if experiment == "TX_BF" else _RxRunner
        for i, mesh in enumerate(meshes):
            cfg = ScenarioConfig(experiment=experiment, mesh=mesh)
            # a runner's construction takes one lookup, through admission: the first misses,
            # every later one hits the same entry
            runner(cfg)
            info = cache.cache_info()
            assert (info.misses, info.hits, info.currsize) == (1, 2 * i, 1)
            validate_scenario(cfg)
            assert cache.cache_info().hits == 2 * i + 1

    def test_cached_ls_system_is_read_only_and_bitwise_fresh(self):
        cfg = ScenarioConfig(experiment="TX_BF", mesh=MeshConfig(n_nodes=2, amble_len=4096), t_h=3)
        runner = _TxRunner(cfg)
        fresh = estimation.joint_ls_system(runner.pre_mf, cfg.t_h)
        assert runner.ls_system is scenario._receive_references(*scenario._reference_key(cfg))[4]
        for a, b in zip(runner.ls_system, fresh):
            assert a.tobytes() == b.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                a *= 1

    def test_tx_cycle_shares_one_payload(self, monkeypatch):
        # every node frame the runner builds in a cycle carries the same
        # payload in bf_payload and in its own monitor slot, and nothing in
        # the other nodes' slots
        built = []
        real = waveform.build_frame

        def spy(layout, contents):
            frame = real(layout, contents)
            built.append((layout, frame.copy()))  # the runner scales and rotates its frame in place
            return frame

        monkeypatch.setattr(waveform, "build_frame", spy)
        run_scenario(ScenarioConfig(experiment="TX_BF", n_cycles=2, seed=7, mesh=TX_MESH))
        n = TX_MESH.n_nodes
        assert len(built) == 2 * n
        for cycle in (built[:n], built[n:]):
            payload = cycle[0][0].extract(cycle[0][1], "bf_payload")
            assert np.mean(np.abs(payload) ** 2) > 0.5
            for i, (layout, samples) in enumerate(cycle):
                assert np.array_equal(layout.extract(samples, "bf_payload"), payload)
                for k in range(1, n + 1):
                    monitor = layout.extract(samples, f"monitor_{k}")
                    if k == i + 1:
                        assert np.array_equal(monitor, payload)
                    else:
                        assert not np.any(monitor)
        # a fresh payload every cycle
        assert not np.array_equal(built[0][0].extract(built[0][1], "bf_payload"),
                                  built[n][0].extract(built[n][1], "bf_payload"))


class TestSignalSpans:
    """A cycle's channel and receiver LO work on the spans that hold signal;
    the records equal those of the same runner over whole frames and buffers."""

    THREE_TAPS = [[0.8, 0.1], [0.3, -0.2], [0.1, 0.05]]

    @staticmethod
    def _whole_frames(monkeypatch):
        real_channel, real_lo = scenario.apply_channel, scenario.apply_node_imperfections

        def whole_frame(self, layout, contents, power):
            samples = waveform.build_frame(layout, contents) * np.sqrt(power)
            return samples, [(0, len(samples))]

        monkeypatch.setattr(scenario._Runner, "_frame", whole_frame)
        monkeypatch.setattr(scenario, "apply_channel", lambda out, x, ch, spans: real_channel(out, x, ch))
        monkeypatch.setattr(scenario, "apply_node_imperfections",
                            lambda x, node, fs, sign, spans: real_lo(x, node, fs, sign))

    @pytest.mark.parametrize(
        "experiment, overrides",
        [
            ("TX_NULL", dict(channel_kind="rayleigh", channel_taps=3)),
            ("TX_BF", dict(channels={"n2->B": {"taps": THREE_TAPS, "tof": 40}})),
            ("COHERENCE", dict(channel_kind="rayleigh", channel_taps=3, phase_walk_var_per_s=0.021)),
            ("RX_BF", dict(phase_walk_var_per_s=0.3, channels={"A->n2": {"taps": THREE_TAPS, "tof": 40}})),
        ],
    )
    def test_records_equal_whole_frame_runner(self, monkeypatch, experiment, overrides):
        mesh = MeshConfig() if experiment in RX_EXPERIMENTS else TX_MESH
        cfg = ScenarioConfig(experiment=experiment, n_cycles=3, seed=5, mesh=mesh, **overrides)
        spans = run_scenario(cfg)
        self._whole_frames(monkeypatch)
        whole = run_scenario(cfg)
        assert cycle_csv_lines(spans, mesh.n_nodes, "m") == cycle_csv_lines(whole, mesh.n_nodes, "m")
        assert "warmup" in spans[0].flags or experiment in RX_EXPERIMENTS

    def test_link_budget_matches_full_buffer_derotation(self):
        # derotating only the LS window gives the taps of the full-length
        # derotation; the powers are the buffer's as received, which the
        # derotated buffer's match to the last bits
        from dcbf.impairments import _phasor

        cfg = ScenarioConfig(experiment="TX_BF", n_cycles=1, seed=5, mesh=TX_MESH,
                             channels={"n2->B": {"taps": self.THREE_TAPS, "tof": 40}})
        runner = _TxRunner(cfg)
        sent = runner._transmit(0, CycleRecord(cycle=0, t_virtual_s=0.0), [])
        z_mf, acq, f_hat = runner._receive(0, runner._arrivals(sent, 0))
        taps, siso, bf = runner._link_budget(z_mf, acq, f_hat)

        zc = np.multiply(_phasor((-2 * np.pi * f_hat) * (np.arange(len(z_mf)) / runner.fs)), z_mf)  # _derotate's side for a buffer
        ests = estimation.estimate_channels_joint(ComplexSignal(zc, runner.fs), runner.pre_mf, acq.lag, cfg.t_h)
        # the runner's cached system fits as one built afresh, taps and residual to the bit
        cached = estimation.estimate_channels_joint(
            ComplexSignal(zc, runner.fs), runner.pre_mf, acq.lag, cfg.t_h, runner.ls_system
        )
        assert all(a.taps.tobytes() == e.taps.tobytes() and a.residual_power == e.residual_power
                   for a, e in zip(cached, ests))
        power = {seg.name: metrics.segment_power(z_mf, seg, shift=acq.lag) for seg in runner.layout.segments}
        derotated = [metrics.segment_power(zc, seg, shift=acq.lag) for seg in runner.layout.segments]
        assert all(np.array_equal(a, e.taps) for a, e in zip(taps, ests))
        np.testing.assert_allclose(derotated, list(power.values()), rtol=1e-12, atol=0)
        assert siso == [metrics.link_metrics(power[f"monitor_{i + 1}"], power["look_through"], cfg.noise_power)
                        for i in range(runner.n)]
        assert bf == metrics.link_metrics(power["bf_payload"], power["look_through"], cfg.noise_power)


class TestDerivedOnce:
    """What the process caches (scenario._receive_references, the TX joint-LS
    system among them, and the DTFT factor sets in estimation) is keyed on
    every input it depends on: runs interleaved in one process, each
    differing from the base in one key input, give the records of the same
    runs made from empty caches."""

    BASE = ScenarioConfig(experiment="RX_BF", n_cycles=2, seed=4)
    VARIANTS = {
        "coarse_cfo_step_hz": dict(coarse_cfo_step_hz=40.0),
        # these two keep the grids' lengths (81 and 201 points) and move their points
        "coarse_cfo_span_hz": dict(coarse_cfo_span_hz=2010.0),
        "fine_cfo_step_hz": dict(fine_cfo_step_hz=0.999),
        "mesh.amble_len": dict(mesh=MeshConfig(amble_len=4096)),
        "mesh.est_integration_len": dict(mesh=MeshConfig(est_integration_len=1024)),
        "mesh.sample_rate_hz": dict(mesh=MeshConfig(sample_rate_hz=1e6)),
        "mesh.n_nodes": dict(mesh=MeshConfig(n_nodes=2)),
        "TX family": dict(experiment="TX_BF"),
        "TX family, mesh.n_nodes": dict(experiment="TX_BF", mesh=MeshConfig(n_nodes=2)),
        "TX family, t_h": dict(experiment="TX_BF", t_h=3),
    }

    @staticmethod
    def _clear_caches():
        scenario._receive_references.cache_clear()
        estimation._factor_set.cache_clear()

    @staticmethod
    def _sync_round():
        links = [ChannelModel(np.array([1.0 + 0j]), tof_delay=20, label=label) for label in ("up", "down")]
        follower = NodeState("F", timestamp_offset_s=0.375)
        return run_sync_round(NodeState("L"), follower, *links, NoiseSpec(0.5), substream(3, "s", "n"))

    def _lines(self, cfg):
        return cycle_csv_lines(run_scenario(cfg), cfg.mesh.n_nodes, "m")

    def test_interleaved_runs_match_runs_from_empty_caches(self):
        cfgs = {name: dataclasses.replace(self.BASE, **fields) for name, fields in self.VARIANTS.items()}
        base = self._lines(self.BASE)
        interleaved = {}
        for name, cfg in cfgs.items():
            interleaved[name] = self._lines(cfg)
            assert self._lines(self.BASE) == base, f"base after {name}"
        sync = self._sync_round()
        assert self._lines(self.BASE) == base, "base after a sync round"
        for name, cfg in cfgs.items():
            self._clear_caches()
            assert interleaved[name] == self._lines(cfg), name
            assert interleaved[name] != base, f"{name} does not change the records"
        self._clear_caches()
        assert self._lines(self.BASE) == base
        self._clear_caches()
        assert self._sync_round() == sync


class TestRunnerSetup:
    """A runner builds only the RNG streams its run draws from, and takes the
    layout, receive buffer and explicit channels that admission derived."""

    @staticmethod
    def _streams(monkeypatch, cfg, cycles=1):
        """(entity, purpose) of every stream the runner of cfg builds, in
        order, through set-up and the given number of cycles."""
        built = []
        real = scenario.substream

        def record(seed, entity, purpose):
            built.append((entity, purpose))
            return real(seed, entity, purpose)

        monkeypatch.setattr(scenario, "substream", record)
        run_scenario(dataclasses.replace(cfg, n_cycles=cycles))
        return built

    def test_benchmark_rx_interf_builds_only_noise_streams(self, monkeypatch):
        # the benchmark's rx_interf workload: every link explicit (perfbench/workloads.py)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        links = importlib.import_module("workloads").separable_links(12)
        cfg = apply_overrides(load_config("rx_bf_interf"), ["seed=12", links])
        assert self._streams(monkeypatch, cfg) == [("n1", "noise"), ("n2", "noise"), ("n3", "noise")]

    def test_bundled_coherence_streams(self, monkeypatch):
        assert self._streams(monkeypatch, load_config("coherence")) == [
            ("scenario", "channels"), ("n1", "phase_walk"), ("n2", "phase_walk"), ("n3", "phase_walk"), ("B", "noise"),
        ]

    def test_dynamics_build_their_streams(self, monkeypatch):
        cfg = ScenarioConfig(experiment="TX_NULL", seed=5, mesh=TX_MESH, channel_redraw_every=2,
                             channel_walk_std_per_cycle=0.05, ots_jitter_rad=0.1, phase_walk_var_per_s=0.02)
        assert self._streams(monkeypatch, cfg, cycles=3) == [
            ("scenario", "channels"), ("scenario", "channel_walk"),
            ("n1", "phase_walk"), ("n2", "phase_walk"), ("n3", "phase_walk"),
            ("n1", "ots_jitter"), ("n2", "ots_jitter"), ("n3", "ots_jitter"),
            ("B", "noise"), ("C", "noise"), ("scenario", "channels_cycle2"),
        ]

    def test_explicit_channels_parsed_once_per_runner(self, monkeypatch):
        channels = {f"A->n{i + 1}": {"taps": [[1.0, 0.0]], "tof": i} for i in range(3)}
        parsed = []
        real = scenario._explicit_channel

        def count(spec, label):
            parsed.append(label)
            return real(spec, label)

        monkeypatch.setattr(scenario, "_explicit_channel", count)
        cfg = ScenarioConfig(experiment="RX_BF", n_cycles=3, seed=7, channels=channels, channel_redraw_every=1)
        records = run_scenario(cfg)
        assert sorted(parsed) == sorted(channels)
        assert len(records) == 3 and np.isfinite(records[-1].gain_snr_db)
