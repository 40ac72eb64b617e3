"""Check that the traced counters repeat exactly.

    python3 perfbench/check_determinism.py [workload ...]

Runs every named workload (default: all three) traced twice with seed 1 and
once with seed 2, one pass each, and exits 1 if quasi.ivp_calls,
quasi.rk_steps, quasi.rhs_evals, spectrum.det_evals, spectrum.scan_points or
spectrum.refine_det_evals differ between the runs.  Takes about five minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / ".." / "src"))
from run import WORKLOADS  # noqa: E402
from tracing import DETERMINISTIC  # noqa: E402

SEEDS = (1, 1, 2)


def counters(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: result["metrics"][name]["value"] for name in DETERMINISTIC}


def main(names):
    ok = True
    for workload in names or WORKLOADS:
        runs = [counters(workload, seed) for seed in SEEDS]
        same = all(run == runs[0] for run in runs)
        ok = ok and same
        print(f"{workload}: {'repeat' if same else 'DIFFER'} "
              + json.dumps(runs[0] if same else runs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
