"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For every workload, from the root of a checkout:
  * two traced runs on the default seed must report identical per-step
    call counts, raised counts and corrected FEC bits, and pass their span
    checks (spans nest; every span inside a traced step is reported; no
    span was recorded inside an untraced step);
  * one untraced run on a held-out seed must pass every output check with no
    failed step, so that a claim can be re-checked on a seed nobody tuned on.
Each run is a fresh process, as the benchmark is normally run. Exits 1 on
any failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("rx_interf", "coherence_sweep", "sync")
HELD_OUT_SEED = 4242
SECONDS = 6.0  # host seconds per run
SPAN_CHECKS = ("spans_nest", "every_step_span_reported", "untraced_steps_have_no_spans")
COUNTED = (".calls", ".raised", "corrected_bits")


def run(workload: str, trace: int, seed: int | None = None) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seconds", str(SECONDS), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    info, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return info, result


def main() -> int:
    ok = True
    for w in WORKLOADS:
        first, second = (run(w, trace=1) for _ in range(2))
        counts = [
            {k: v["value"] for k, v in res["metrics"].items() if k.endswith(COUNTED)} for _, res in (first, second)
        ]
        differing = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        traced_ok = all(info["checks"].get(c) for info, _ in (first, second) for c in SPAN_CHECKS)
        info, res = run(w, trace=0, seed=HELD_OUT_SEED)
        held_ok = res["correct"] and res["failed"] == 0
        print(
            f"{w}: counts repeat {not differing} "
            f"({len(counts[0])} compared{', differ: ' + str(differing) if differing else ''}); "
            f"span checks {traced_ok}; seed {HELD_OUT_SEED} correct {held_ok} "
            f"(attempted {res['attempted']}, failed {res['failed']}, outputs {info['outputs']}); "
            f"default-seed digest matches seed commit: {first[0]['digest_matches_seed_commit']}"
        )
        ok = ok and not differing and traced_ok and held_ok
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
