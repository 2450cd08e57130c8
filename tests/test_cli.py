"""Tests for the command line interface and its output contracts."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dcbf
from dcbf.cli import SYNC_MAX_DELAY_SAMPLES, apply_overrides, cycle_csv_lines, load_config, main, scenario_from_dict
from dcbf.core import ConfigError
from dcbf.scenario import CycleRecord, validate_scenario


def _short_config(tmp_path, **extra):
    obj = {
        "experiment": "RX_BF",
        "n_cycles": 3,
        "noise_power": 0.1,
        "seed": 5,
    }
    obj.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    return path


class TestConfigHandling:
    def test_load_bundled_config(self):
        cfg = load_config("rx_bf_interf")
        assert cfg.experiment == "RX_BF_INTERF"
        assert cfg.interferer_power > 0

    @pytest.mark.parametrize("name", ["rx_bf", "rx_bf_interf", "tx_bf", "tx_null", "coherence"])
    def test_bundled_configs_valid(self, name):
        cfg = load_config(name)
        assert validate_scenario(cfg) is cfg
        assert cfg.experiment == name.upper()

    def test_unknown_field_rejected_with_path(self):
        with pytest.raises(ConfigError, match="not_a_field"):
            scenario_from_dict({"not_a_field": 1})
        with pytest.raises(ConfigError, match="mesh.bogus"):
            scenario_from_dict({"mesh": {"bogus": 2}})

    def test_overrides(self):
        cfg = load_config("rx_bf")
        cfg2 = apply_overrides(cfg, ["seed=99", "mesh.n_nodes=2", "noise_power=0.25"])
        assert cfg2.seed == 99
        assert cfg2.mesh.n_nodes == 2
        assert cfg2.noise_power == 0.25

    def test_bad_override_path(self):
        cfg = load_config("rx_bf")
        with pytest.raises(ConfigError, match="unknown"):
            apply_overrides(cfg, ["nope.deep=1"])

    @staticmethod
    def _case(overrides, field, config="rx_bf"):
        overrides = (overrides,) if isinstance(overrides, str) else overrides
        return pytest.param(config, overrides, field, id=f"{' '.join(overrides)}-{field}")

    @pytest.mark.parametrize(
        "config, overrides, field",
        [
            _case("mesh.seed=1", "mesh.seed"),
            _case("mesh.carrier_hz=6e10", "mesh.carrier_hz"),
            _case("mesh.bandwidth_hz=1e6", "mesh.bandwidth_hz"),
            _case('channels={"A->n9": {"taps": [[1, 0]]}}', "channels.A->n9"),
            _case('channels={"n1->C": {"taps": [[1, 0]], "tof": 300}}', "channels.n1->C", config="tx_bf"),
            _case('channels={"A->n1": {"taps": [[1]]}}', "channels.A->n1"),
            _case('channels={"A->n1": {"taps": [[NaN, 0]], "tof": 0}}', "channels.A->n1"),
            _case('channels={"A->n1": {"taps": [[1, 0]], "tof": 2.5}}', "channels.A->n1"),
            _case('channels={"A->n1": {"taps": [[1, 0]], "tof": true}}', "channels.A->n1"),
            # acquisition memory: 324,017 and 300,016 lags fit the 0.2 s cycle period
            _case('channels={"A->n1": {"taps": [[1, 0]], "tof": 324000}}', "channels.A->n1"),
            _case(("channel_kind=rayleigh", "channel_taps=300000"), "channel_taps"),
            _case("interferer_power=1.0", "interferer_power"),
            _case("channel_taps=2", "channel_taps"),
            _case("mesh.n_nodes=5", "mesh.n_nodes", config="tx_bf"),
            _case(("mesh.n_nodes=7", "mesh.amble_len=112", "t_h=2"), "mesh.n_nodes", config="tx_bf"),
            _case("mesh.amble_len=2", "mesh.amble_len"),
            _case("mesh.payload_len=70000", "mesh.payload_len"),
            _case("t_h=1000", "t_h", config="tx_bf"),
            _case("mesh.cycle_period_s=0.01", "mesh.cycle_period_s", config="tx_bf"),
            _case("t_w=100000", "t_w"),
            # wrong types and non-finite values
            _case("n_cycles=abc", "n_cycles"),
            _case("n_cycles=2.5", "n_cycles"),
            _case("t_w=3.5", "t_w"),
            _case("mesh.n_nodes=2.5", "mesh.n_nodes"),
            _case("noise_power=NaN", "noise_power"),
            _case("source_cfo_hz=NaN", "source_cfo_hz"),
            _case("seed=1.5", "seed"),
            _case("seed=true", "seed"),
            _case("signal_power=Infinity", "signal_power"),
            _case("mesh=3", "mesh"),
            # CFO grids, detection threshold, dynamics and timing out of range
            _case("coarse_cfo_step_hz=0", "coarse_cfo_step_hz"),
            _case("fine_cfo_step_hz=0", "fine_cfo_step_hz"),
            _case("coarse_cfo_span_hz=-100", "coarse_cfo_span_hz"),
            _case("fine_cfo_step_hz=-1", "fine_cfo_step_hz"),
            _case("coarse_cfo_step_hz=1e-6", "coarse_cfo_step_hz"),
            _case("coarse_cfo_span_hz=1e9", "coarse_cfo_step_hz"),
            _case("fine_cfo_step_hz=1e-6", "fine_cfo_step_hz"),
            _case(("coarse_cfo_step_hz=1e6", "coarse_cfo_span_hz=1e6"), "fine_cfo_step_hz"),
            _case("fine_cfo_step_hz=250", "fine_cfo_step_hz"),  # a 2-point fine grid: no refinement
            _case("detection_threshold=2", "detection_threshold"),
            _case("channel_redraw_every=-3", "channel_redraw_every"),
            _case("channel_walk_std_per_cycle=-1", "channel_walk_std_per_cycle"),
            _case("warmup_identity_s=-1", "warmup_identity_s"),
            _case("warmup_identity_s=100", "warmup_identity_s", config="tx_null"),
            _case("feedback_halt_time_s=-1", "feedback_halt_time_s", config="coherence"),
            # mesh fields carry their prefix
            _case("mesh.n_nodes=0", "mesh.n_nodes"),
            _case("mesh.amble_len=0", "mesh.amble_len"),
            _case("mesh.sample_rate_hz=0", "mesh.sample_rate_hz"),
        ],
    )
    def test_bad_override_exits_2_naming_field(self, tmp_path, capsys, config, overrides, field):
        argv = ["run", "--config", config, "--out", str(tmp_path)]
        for override in overrides:
            argv += ["--override", override]
        assert main(argv) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "cycles.csv").exists()

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("document", ["[1, 2]", "5", '"rx_bf"', "null"])
    def test_config_not_a_json_object_is_config_error(self, tmp_path, capsys, document):
        path = tmp_path / "cfg.json"
        path.write_text(document)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config: expected a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_directory_is_config_error(self, tmp_path, capsys):
        (tmp_path / "configs").mkdir()
        assert main(["run", "--config", str(tmp_path / "configs"), "--out", str(tmp_path / "out")]) == 2
        assert "config: not a file" in capsys.readouterr().err

    def test_config_not_utf8_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config: cannot read" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestImports:
    def test_every_public_name_resolves(self):
        modules = [dcbf] + [importlib.import_module(f"dcbf.{m.name}") for m in pkgutil.iter_modules(dcbf.__path__)]
        for module in modules:
            public = getattr(module, "__all__", [])
            assert len(set(public)) == len(public), module.__name__
            missing = [name for name in public if not hasattr(module, name)]
            assert not missing, (module.__name__, missing)

    def test_no_runner_for_time_transfer_and_no_scipy(self):
        # a fresh interpreter: time transfer loads none of the runner's
        # modules, and the whole package, CLI included, loads no scipy module
        code = (
            "import sys, dcbf.timesync; "
            "assert not {'dcbf.scenario', 'dcbf.beamform', 'dcbf.metrics'} & set(sys.modules); "
            "import dcbf.cli; "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']"
        )
        src = str(Path(dcbf.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


class TestRun:
    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg_path = _short_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        csv_lines = (out / "cycles.csv").read_text().splitlines()
        assert csv_lines[0].startswith("# schema=cycles-v1 manifest=")
        header = csv_lines[1].split(",")
        assert header[0] == "cycle"
        assert "gain_snr_db" in header
        assert len(csv_lines) == 2 + 3  # comment + header + n_cycles rows
        summary = json.loads((out / "summary.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert summary["manifest"] == manifest["manifest_sha256"]
        assert manifest["seed"] == 5
        assert manifest["virtual_time_s"]["end"] == pytest.approx(3 * 0.2)

    def test_cycles_csv_columns_pinned(self):
        # node by node the per-node columns, then the mesh-wide ones; a real
        # column reads repr(float) of what the record holds, an integer too
        rec = CycleRecord(
            cycle=4, t_virtual_s=1, flags="warmup", siso_snr_db=[1.0, 2.0], siso_inr_db=[3.0, 4.0],
            siso_sinr_db=[5.0, 6.0], detection_stat=[0.5, 0.25], cfo_est_hz=[-1.5, 2.5], bf_snr_db=7, gain_c_db=-8.0,
            beamformer_ref="abc",
        )
        assert cycle_csv_lines([rec], 2, "m") == [
            "# schema=cycles-v1 manifest=m",
            "cycle,t_virtual_s,flags,"
            "siso_snr_db_1,siso_inr_db_1,siso_sinr_db_1,det_stat_1,cfo_hz_1,"
            "siso_snr_db_2,siso_inr_db_2,siso_sinr_db_2,det_stat_2,cfo_hz_2,"
            "bf_snr_db,bf_inr_db,bf_sinr_db,gain_snr_db,sinr_improvement_db,inr_reduction_db,bf_snr_c_db,gain_c_db,"
            "beamformer_ref",
            "4,1.0,warmup,1.0,3.0,5.0,0.5,-1.5,2.0,4.0,6.0,0.25,2.5,7.0,nan,nan,nan,nan,nan,nan,-8.0,abc",
        ]

    def test_filter_longer_than_training_window(self, tmp_path):
        # a 32-sample amble trains a 70-tap filter: its lags reach past the window
        argv = ["run", "--config", "rx_bf", "--out", str(tmp_path)]
        for override in ("n_cycles=1", "mesh.amble_len=32", "t_w=70"):
            argv += ["--override", override]
        assert main(argv) == 0

    def test_rerun_byte_identical(self, tmp_path):
        cfg_path = _short_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert (out1 / "cycles.csv").read_bytes() == (out2 / "cycles.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_seed_override_changes_values_not_schema(self, tmp_path):
        cfg_path = _short_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out2), "--seed", "77"]) == 0
        a = (out1 / "cycles.csv").read_text().splitlines()
        b = (out2 / "cycles.csv").read_text().splitlines()
        assert a[1] == b[1]  # same column header
        assert a[2:] != b[2:]

    def test_summary_gains_match_csv_recompute(self, tmp_path):
        cfg_path = _short_config(tmp_path, n_cycles=4)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "cycles.csv").read_text().splitlines()
        header = lines[1].split(",")
        gi = header.index("gain_snr_db")
        fi = header.index("flags")
        gains = []
        for row in lines[2:]:
            cells = row.split(",")
            if "warmup" in cells[fi]:
                continue
            g = float(cells[gi])
            if np.isfinite(g):
                gains.append(10 ** (g / 10))
        recomputed = 10 * np.log10(np.mean(gains))
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["gain_snr_db_timeavg"] - recomputed) <= 1e-9

    def test_iq_dump(self, tmp_path):
        cfg_path = _short_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--iq-dump"]) == 0
        assert (out / "frames" / "source.iq").exists()
        assert (out / "frames" / "source.iq.json").exists()


class TestBounds:
    def test_spot_values(self, tmp_path):
        out = tmp_path / "bounds.csv"
        rc = main(["bounds", "--n", "3", "--phi-min", "0", "--phi-max", "1", "--steps", "3",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "phi_var,power_gain_db,rx_gain_db,inr_bound"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(9.542, abs=0.001)
        assert float(first[3]) == 0.0

    def test_single_node_flat_zero(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--n", "1", "--steps", "5", "--out", str(out)]) == 0
        for row in out.read_text().splitlines()[1:]:
            cells = row.split(",")
            assert float(cells[1]) == pytest.approx(0.0)
            assert float(cells[3]) == 0.0

    def test_bad_range(self, tmp_path, capsys):
        rc = main(["bounds", "--phi-min", "2", "--phi-max", "1", "--out", str(tmp_path / "b.csv")])
        assert rc == 2


# sync-demo's LEADER_REPLY after Hamming(7,4) and Golay(24,12): 58 blocks of 24 bits
SYNC_DEMO_WIRE = (
    "004b71c0064e00000000000000000000000000000000000000391d600c9ce493a9800dc50000"
    "0000000000000000000000000000000000000000000000000000000000000000000000000000"
    "0000000000036e2000e82b5b0a4f000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000003600e20e4ef2e254b90000000000"
    "00000000000000000000000000000000000000000000"
)


class TestSyncDemo:
    def test_wire_format_pinned(self, capsys):
        assert main(["sync-demo", "--rounds", "0"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == f"encoded LEADER_REPLY (1392 coded bits): {SYNC_DEMO_WIRE}"

    def test_prints_rounds_and_hexdump(self, capsys):
        rc = main(["sync-demo", "--rounds", "2", "--snr-db", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "encoded LEADER_REPLY" in out
        assert "round 0" in out and "round 1" in out
        assert "delta_hat" in out

    def test_symmetric_residual_zero(self, capsys):
        main(["sync-demo", "--rounds", "1", "--snr-db", "60", "--delta-s", "0.001"])
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if "round 0" in ln][0]
        residual = float(line.split("residual = ")[1].split(" s")[0])
        assert abs(residual) < 1e-12

    def test_asymmetry_residual(self, capsys):
        main(["sync-demo", "--rounds", "1", "--snr-db", "60", "--asym-samples", "4"])
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if "round 0" in ln][0]
        residual = float(line.split("residual = ")[1].split(" s")[0])
        assert abs(residual) == pytest.approx(4 / 2 / 2e6, rel=1e-6)

    def test_snr_sweep_monotone(self, capsys):
        rc = main(["sync-demo", "--rounds", "30", "--sweep", "4,6,8"])
        assert rc == 0
        out = capsys.readouterr().out
        rms = []
        for line in out.splitlines():
            if "rms = " in line and "dB:" in line:
                rms.append(float(line.split("rms = ")[1].split(" s")[0]))
        assert len(rms) == 3
        assert rms[0] > rms[1] > rms[2]


class TestDumpFrame:
    def test_dump_and_reload(self, tmp_path):
        out = tmp_path / "f.iq"
        rc = main(["dump-frame", "--kind", "rx-source", "--out", str(out)])
        assert rc == 0
        meta = json.loads((tmp_path / "f.iq.json").read_text())
        assert meta["total_length"] == 75560
        assert len(np.fromfile(out, "<c8")) == 75560

    def test_tx_node_dump(self, tmp_path):
        out = tmp_path / "n2.iq"
        assert main(["dump-frame", "--kind", "tx-node", "--node-id", "2", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "n2.iq.json").read_text())
        assert meta["total_length"] == 91472

    @pytest.mark.parametrize("node_id", ["0", "4"])
    def test_node_id_outside_mesh_exits_2(self, tmp_path, capsys, node_id):
        out = tmp_path / "n.iq"
        assert main(["dump-frame", "--kind", "tx-node", "--node-id", node_id, "--out", str(out)]) == 2
        assert "--node-id" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["rx-source", "rx-interferer"])
    def test_node_id_outside_tx_node_exits_2(self, tmp_path, capsys, kind):
        out = tmp_path / "n.iq"
        assert main(["dump-frame", "--kind", kind, "--node-id", "1", "--out", str(out)]) == 2
        assert "--node-id" in capsys.readouterr().err
        assert not out.exists()


class TestBadFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sync-demo", "--snr-db", "nan"], "--snr-db"),
            (["sync-demo", "--tof-samples", "-5"], "--tof-samples"),
            (["sync-demo", "--delta-s", "1e30"], "--delta-s"),
            (["sync-demo", "--sweep", "6,abc"], "--sweep"),
            (["bounds", "--n", "0"], "--n"),
            (["bounds", "--phi-max", "nan"], "--phi-max"),
            (["bounds", "--steps", "0"], "--steps"),
            # past the bounds that keep a run's memory small
            (["sync-demo", "--tof-samples", "1000000000"], "--tof-samples"),
            (["sync-demo", "--asym-samples", "1000000000"], "--asym-samples"),
            (["bounds", "--steps", "10000000000"], "--steps"),
            (["sync-demo", "--rounds", "-3"], "--rounds"),
            (["sync-demo", "--rounds", "0", "--sweep", "6"], "--rounds"),
        ],
    )
    def test_exits_2_naming_the_flag(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "b.csv"
        if argv[0] == "bounds":
            argv = argv + ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"config error: {flag}:" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("tof, asym", [(SYNC_MAX_DELAY_SAMPLES, 0), (0, SYNC_MAX_DELAY_SAMPLES)])
    def test_longest_sync_delays_run(self, capsys, tof, asym):
        assert main(["sync-demo", "--rounds", "1", "--tof-samples", str(tof), "--asym-samples", str(asym)]) == 0
        assert "round 0: delta_hat" in capsys.readouterr().out
