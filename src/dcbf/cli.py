"""Command line interface: experiment dispatch and results emission.

Subcommands:
  run        execute a scenario config, emit cycles.csv / summary.json / manifest.json
  bounds     tabulate the phase-error performance bounds
  sync-demo  run time-transfer rounds and dump one encoded message as hex
  dump-frame export a frame as float32 I/Q with a JSON layout sidecar

Exit codes: 0 ok, 2 config error, 3 runtime error. Set DCBF_LOG for verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from . import metrics, timesync, waveform
from .core import ConfigError, FrameLayout, MeshConfig, NodeState, substream
from .impairments import ChannelModel, NoiseSpec
from .scenario import PER_NODE_FIELDS, RX_EXPERIMENTS, CycleRecord, ScenarioConfig, run_scenario

CSV_SCHEMA = "cycles-v1"
ARTIFACT_VERSION = "0.3.0"

log = logging.getLogger("dcbf")

# Most rows of a `bounds` table. Each row is computed and formatted on its
# own in Python, about 10 µs and 75 bytes: 100,000 rows take about a second
# and 7.5 MB, where 1e10 would ask numpy for an 80 GB grid first.
BOUNDS_MAX_STEPS = 100_000

# Longest `sync-demo` link delay, in samples (4 ms of flight at 2 MHz). A hop
# searches its whole buffer for the 512-sample preamble, holding 512 complex
# values per lag, and it has delay + 65 lags: at 8,000 samples that stays
# within the 2^22 values (64 MiB) that bound a mesh acquisition
# (scenario.MAX_ACQUISITION_VALUES). 1e9 samples would ask for terabytes.
SYNC_MAX_DELAY_SAMPLES = 8000


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def _from_dict(cls, obj: dict, prefix: str = ""):
    """cls(**obj), raising ConfigError naming prefix + key for a key that is
    no field of the config dataclass cls."""
    known = {f.name for f in dataclasses.fields(cls)}
    for key in obj:
        if key not in known:
            raise ConfigError(prefix + key, "unknown field")
    return cls(**obj)


def scenario_from_dict(obj: dict) -> ScenarioConfig:
    """Build a config from its JSON object, rejecting unknown fields only: the
    runner validates the config it is given before synthesizing anything."""
    cfg = _from_dict(ScenarioConfig, obj)
    if isinstance(cfg.mesh, dict):
        cfg = dataclasses.replace(cfg, mesh=_from_dict(MeshConfig, cfg.mesh, "mesh."))
    return cfg


def load_config(path_or_name: str) -> ScenarioConfig:
    """Load a JSON scenario config from a path, or by bundled config name."""
    path = Path(path_or_name)
    if path.exists():
        if not path.is_file():
            raise ConfigError("config", f"not a file: {path_or_name}")
        ref = path
    else:
        name = path_or_name if path_or_name.endswith(".json") else path_or_name + ".json"
        ref = resources.files("dcbf").joinpath("configs", name)
        if not ref.is_file():
            raise ConfigError("config", f"no such file or bundled config: {path_or_name}")
    try:
        obj = json.loads(ref.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path_or_name}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config", f"expected a JSON object, got {type(obj).__name__}")
    return scenario_from_dict(obj)


def apply_overrides(cfg: ScenarioConfig, overrides: list[str]) -> ScenarioConfig:
    """Apply key=value overrides; dotted keys reach into mesh.* fields."""
    obj = dataclasses.asdict(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError("override", f"expected key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        parts = key.split(".")
        target = obj
        for p in parts[:-1]:
            if p not in target or not isinstance(target[p], dict):
                raise ConfigError(key, "unknown override path")
            target = target[p]
        if parts[-1] not in target:
            raise ConfigError(key, "unknown field")
        target[parts[-1]] = value
    return scenario_from_dict(obj)


def _manifest_hash(cfg_dict: dict, seed: int) -> str:
    canonical = json.dumps(
        {"artifact_version": ARTIFACT_VERSION, "seed": seed, "config": cfg_dict},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


# cycles.csv headers of the CycleRecord fields that it renames
_CSV_NAMES = {"detection_stat": "det_stat", "cfo_est_hz": "cfo_hz"}


def cycle_csv_lines(records: list[CycleRecord], n_nodes: int, manifest: str) -> list[str]:
    # (header, cell of a record) per column, one for each CycleRecord field in
    # order, where the per-node lists take one column per node suffixed _1.._N,
    # node by node; the header and every row read it
    columns = []
    for f in dataclasses.fields(CycleRecord):
        if f.name == PER_NODE_FIELDS[0]:
            columns += [
                (f"{_CSV_NAMES.get(name, name)}_{i + 1}", lambda r, name=name, i=i: _fmt(getattr(r, name)[i]))
                for i in range(n_nodes)
                for name in PER_NODE_FIELDS
            ]
        elif f.name not in PER_NODE_FIELDS:
            text = _fmt if f.type == "float" else str
            columns.append((f.name, lambda r, name=f.name, text=text: text(getattr(r, name))))
    lines = [f"# schema={CSV_SCHEMA} manifest={manifest}", ",".join(name for name, _ in columns)]
    lines += [",".join(cell(r) for _, cell in columns) for r in records]
    return lines


def _timeavg_db(values_db: list[float]) -> float:
    """Linear-domain mean of finite dB entries, back in dB; nan if none."""
    lin = [10 ** (v / 10) for v in values_db if np.isfinite(v)]
    if not lin:
        return float("nan")
    return float(10 * np.log10(np.mean(lin)))


def summarize(records: list[CycleRecord], cfg: ScenarioConfig, manifest: str) -> dict:
    """The run's summary.json. A COHERENCE run's phi_var_terminal is taken at
    n_cycles * period, one period after the last cycle, not at (n_cycles - 1) *
    period, where criterion 5 and perfbench's bound_gap_db take the bound."""
    steady = [r for r in records if "warmup" not in r.flags]
    n = cfg.mesh.n_nodes
    summary = {
        "schema": "summary-v1",
        "manifest": manifest,
        "experiment": cfg.experiment,
        "n_cycles": len(records),
        "n_warmup": sum(1 for r in records if "warmup" in r.flags),
        "n_acq_failures": sum(1 for r in records if "acq_fail" in r.flags),
        "gain_snr_db_timeavg": _timeavg_db([r.gain_snr_db for r in steady]),
        "gain_c_db_timeavg": _timeavg_db([r.gain_c_db for r in steady]),
        "sinr_improvement_db_timeavg": _timeavg_db([r.sinr_improvement_db for r in steady]),
        "inr_reduction_db_timeavg": _timeavg_db([r.inr_reduction_db for r in steady]),
        "bounds": {
            "power_gain_db_phi0": metrics.to_db(metrics.power_gain_bound(n, 0.0)),
            "rx_snr_gain_db_phi0": metrics.to_db(metrics.rx_snr_gain_bound(n, 0.0)),
            "inr_reduction_bound_phi0": metrics.inr_reduction_bound(n, 0.0),
        },
    }
    if cfg.experiment == "COHERENCE":
        t_end = cfg.n_cycles * cfg.mesh.cycle_period_s
        phi_terminal = cfg.phase_walk_var_per_s * max(t_end - cfg.feedback_halt_time_s, 0.0)
        summary["bounds"]["phi_var_terminal"] = phi_terminal
        summary["bounds"]["power_gain_db_phi_terminal"] = metrics.to_db(
            metrics.power_gain_bound(n, phi_terminal)
        )
    return summary


def _write_run_outputs(out_dir: Path, cfg: ScenarioConfig, records: list[CycleRecord]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_dict = dataclasses.asdict(cfg)
    manifest = _manifest_hash(cfg_dict, cfg.seed)
    lines = cycle_csv_lines(records, cfg.mesh.n_nodes, manifest)
    (out_dir / "cycles.csv").write_text("\n".join(lines) + "\n")
    summary = summarize(records, cfg, manifest)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    manifest_obj = {
        "artifact_version": ARTIFACT_VERSION,
        "manifest_sha256": manifest,
        "seed": cfg.seed,
        "config": cfg_dict,
        "outputs": ["cycles.csv", "summary.json"],
        "virtual_time_s": {"start": 0.0, "end": cfg.n_cycles * cfg.mesh.cycle_period_s},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest_obj, indent=2, sort_keys=True) + "\n")


def _template_frames(kind: str, mesh: MeshConfig, seed: int) -> list[tuple[np.ndarray, FrameLayout]]:
    """The frames of one `dump-frame --kind` (every node's for tx-node): the
    kind's frame design, its payload drawn from seed `seed`, unscaled, with no
    weights and no LO. A run draws each cycle's payloads from per-cycle seeds,
    and its interferer fills the receive buffer, not RX_FRAME_TOTAL samples."""
    if kind == "rx-source":
        designs = [(waveform.rx_source_layout(mesh), waveform.source_frame(mesh, seed))]
    elif kind == "rx-interferer":
        total = waveform.RX_FRAME_TOTAL
        designs = [(waveform.interferer_layout(total), waveform.interferer_frame(total, seed))]
    else:
        layout = waveform.tx_node_layout(mesh)
        designs = [(layout, contents) for contents in waveform.node_frames(mesh, seed)]
    return [(waveform.build_frame(layout, contents), layout) for layout, contents in designs]


def _dump_template_frames(out_dir: Path, cfg: ScenarioConfig) -> None:
    frames_dir = out_dir / "frames"
    frames_dir.mkdir(parents=True, exist_ok=True)
    if cfg.experiment in RX_EXPERIMENTS:
        frames = {"source": _template_frames("rx-source", cfg.mesh, cfg.seed)[0]}
        if cfg.experiment == "RX_BF_INTERF":
            frames["interferer"] = _template_frames("rx-interferer", cfg.mesh, cfg.seed)[0]
    else:
        frames = {f"node_{i + 1}": f for i, f in enumerate(_template_frames("tx-node", cfg.mesh, cfg.seed))}
    for name, (frame, layout) in frames.items():
        waveform.write_frame_iq(frames_dir / f"{name}.iq", frame, layout, cfg.mesh.sample_rate_hz)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    overrides = list(args.override or [])
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    log.info("running %s for %s cycles (seed %s)", cfg.experiment, cfg.n_cycles, cfg.seed)
    records = run_scenario(cfg)
    out_dir = Path(args.out)
    _write_run_outputs(out_dir, cfg, records)
    if args.iq_dump:
        _dump_template_frames(out_dir, cfg)
    print(f"wrote {out_dir / 'cycles.csv'} ({len(records)} cycles)")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    for flag, ok, rule in (
        ("--n", args.n >= 1, "must be ≥ 1"),
        ("--steps", 1 <= args.steps <= BOUNDS_MAX_STEPS, f"must be in 1..{BOUNDS_MAX_STEPS}, one Python row each"),
        ("--phi-min", 0 <= args.phi_min < np.inf, "must be finite and ≥ 0"),
        ("--phi-max", args.phi_min <= args.phi_max < np.inf, "must be finite and ≥ --phi-min"),
    ):
        if not ok:
            raise ConfigError(flag, rule)
    grid = np.linspace(args.phi_min, args.phi_max, args.steps)
    lines = ["phi_var,power_gain_db,rx_gain_db,inr_bound"]
    for phi in grid:
        lines.append(
            ",".join(
                [
                    _fmt(phi),
                    _fmt(metrics.to_db(metrics.power_gain_bound(args.n, phi))),
                    _fmt(metrics.to_db(metrics.rx_snr_gain_bound(args.n, phi))),
                    _fmt(metrics.inr_reduction_bound(args.n, phi)),
                ]
            )
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out} ({args.steps} rows)")
    return 0


def _sync_noise(flag: str, snr_db: float) -> NoiseSpec:
    """Side-channel noise at Es/N0 = snr_db dB; ConfigError naming flag
    unless that noise power is a finite number (+inf dB is no noise)."""
    try:
        return NoiseSpec(10 ** (-snr_db / 10))
    except (OverflowError, ValueError):
        raise ConfigError(flag, f"must be an Es/N0 in dB with a finite noise power, got {snr_db}") from None


def _sync_rounds(noise: NoiseSpec, args: argparse.Namespace, seed_label: str, fresh: bool = False) -> list:
    """Run sync rounds; fresh=True restarts the follower each round so the
    per-round residual statistics are i.i.d. (used for the SNR sweep)."""
    leader = NodeState(node_id="L")
    follower = NodeState(node_id="F", timestamp_offset_s=args.delta_s)
    up = ChannelModel(taps=np.array([1.0 + 0j]), tof_delay=args.tof_samples, label="F->L")
    down = ChannelModel(
        taps=np.array([1.0 + 0j]), tof_delay=args.tof_samples + args.asym_samples, label="L->F"
    )
    rng = substream(args.seed, "sync", seed_label)
    history: list = []
    results = []
    for _ in range(args.rounds):
        if fresh:
            follower = NodeState(node_id="F", timestamp_offset_s=args.delta_s)
            history = []
        results.append(
            timesync.run_sync_round(
                leader, follower, up, down, noise, rng, use_index=args.use_index, history=history
            )
        )
    return results


def cmd_sync_demo(args: argparse.Namespace) -> int:
    # zero rounds prints the encoded message alone; a sweep point's RMS needs a round
    if args.rounds < (1 if args.sweep else 0):
        raise ConfigError("--rounds", "must be ≥ 0, and ≥ 1 with --sweep: a sweep point is an RMS over rounds")
    noise = _sync_noise("--snr-db", args.snr_db)
    try:
        snrs = [float(s) for s in args.sweep.split(",")] if args.sweep else []
    except ValueError:
        raise ConfigError("--sweep", f"must be a comma-separated list of numbers, got {args.sweep!r}") from None
    sweep = [(snr, _sync_noise("--sweep", snr)) for snr in snrs]
    # the round's stamps reach 1e6 s + 3|delta| and are unsigned 64-bit seconds
    if not abs(args.delta_s) <= 1e18:
        raise ConfigError("--delta-s", f"must be finite with |delta| ≤ 1e18 s, got {args.delta_s}")
    delays = f"0..{SYNC_MAX_DELAY_SAMPLES}: a hop's preamble search grows by 8 KiB per sample of delay"
    if not 0 <= args.tof_samples <= SYNC_MAX_DELAY_SAMPLES:
        raise ConfigError("--tof-samples", f"must be in {delays}")
    if not 0 <= args.tof_samples + args.asym_samples <= SYNC_MAX_DELAY_SAMPLES:
        raise ConfigError("--asym-samples", f"--tof-samples + --asym-samples, the downlink delay, must be in {delays}")

    msg = timesync.SyncMessage(
        timesync.MessageKind.LEADER_REPLY,
        t_tx_follower=timesync.Timestamp.from_fraction(Fraction(12345, 8)),
        t_tx_leader=timesync.Timestamp.from_fraction(Fraction(12347, 8)),
        t_rx_leader=timesync.Timestamp.from_fraction(Fraction(98765, 64)),
    )
    bits = timesync.encode_sync_message(msg)
    hexdump = np.packbits(bits).tobytes().hex()
    print(f"encoded LEADER_REPLY ({len(bits)} coded bits): {hexdump}")

    print(f"rounds at Es/N0 = {args.snr_db:.1f} dB (initial offset {args.delta_s} s):")
    for i, res in enumerate(_sync_rounds(noise, args, "demo")):
        if not res.success:
            print(f"  round {i}: {res.failure} failure (round aborted)")
            continue
        print(
            f"  round {i}: delta_hat = {float(res.delta_hat):+.9e} s, "
            f"residual = {float(res.residual):+.3e} s, fec_corrected = {res.corrected_bits}"
        )

    if sweep:
        print("Es/N0 sweep (residual RMS over rounds, fresh follower each round):")
        for snr, sweep_noise in sweep:
            results = _sync_rounds(sweep_noise, args, f"sweep{snr}", fresh=True)
            # an aborted round leaves the full offset uncorrected
            residuals = [float(r.residual) if r.success else args.delta_s for r in results]
            rms = float(np.sqrt(np.mean(np.square(residuals))))
            fails = sum(1 for r in results if not r.success)
            print(f"  {snr:6.1f} dB: rms = {rms:.3e} s, failures = {fails}/{len(results)}")
    return 0


def cmd_dump_frame(args: argparse.Namespace) -> int:
    if args.kind != "tx-node" and args.node_id is not None:
        raise ConfigError("--node-id", f"applies to --kind tx-node only, not {args.kind}")
    mesh = MeshConfig()
    frames = _template_frames(args.kind, mesh, args.seed)
    node = 1 if args.node_id is None else args.node_id
    if not 1 <= node <= len(frames):
        raise ConfigError("--node-id", f"must be in 1..{len(frames)}")
    frame, layout = frames[node - 1]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    waveform.write_frame_iq(out, frame, layout, mesh.sample_rate_hz)
    print(f"wrote {out} ({layout.total_length} samples) and {out}.json")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dcbf", description="Distributed coherent beamforming simulator")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run a scenario config")
    pr.add_argument("--config", required=True, help="JSON config path or bundled name (e.g. rx_bf_interf)")
    pr.add_argument("--out", required=True, help="output directory")
    pr.add_argument("--seed", type=int, default=None, help="override the config seed")
    pr.add_argument("--override", action="append", metavar="KEY=VALUE", help="override config fields")
    pr.add_argument("--iq-dump", action="store_true", help="also export template frames as I/Q")
    pr.set_defaults(func=cmd_run)

    pb = sub.add_parser("bounds", help="tabulate phase-error performance bounds")
    pb.add_argument("--n", type=int, default=3, help="mesh size N")
    pb.add_argument("--phi-min", type=float, default=0.0)
    pb.add_argument("--phi-max", type=float, default=1.0)
    pb.add_argument("--steps", type=int, default=101)
    pb.add_argument("--out", default="bounds.csv")
    pb.set_defaults(func=cmd_bounds)

    ps = sub.add_parser("sync-demo", help="demonstrate RF time transfer rounds")
    ps.add_argument("--rounds", type=int, default=5)
    ps.add_argument("--snr-db", type=float, default=20.0, help="side-channel Es/N0 in dB")
    ps.add_argument("--delta-s", type=float, default=1.25e-3, help="initial follower offset (s)")
    ps.add_argument("--tof-samples", type=int, default=20)
    ps.add_argument("--asym-samples", type=int, default=0, help="extra downlink ToF (samples)")
    ps.add_argument("--use-index", action="store_true", help="index-compressed probes")
    ps.add_argument("--sweep", default=None, help="comma-separated Es/N0 list for an RMS sweep")
    ps.add_argument("--seed", type=int, default=0)
    ps.set_defaults(func=cmd_sync_demo)

    pd = sub.add_parser("dump-frame", help="export a frame as float32 I/Q + JSON sidecar")
    pd.add_argument("--kind", choices=["rx-source", "rx-interferer", "tx-node"], required=True)
    pd.add_argument("--node-id", type=int, default=None, help="transmitting node for --kind tx-node (default 1)")
    pd.add_argument("--out", required=True)
    pd.add_argument("--seed", type=int, default=0)
    pd.set_defaults(func=cmd_dump_frame)
    return p


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("DCBF_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.debug("runtime failure", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
