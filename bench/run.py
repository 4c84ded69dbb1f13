"""warpquot benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Generates the workload's inputs
from the seed under ``.bench_out/``, times set-up in fresh interpreters,
then starts one single-threaded worker process that sweeps the workload
through ``warpquot.cli.main``.  ``--trace 0`` reports the end-to-end metrics
(measured with tracing off); ``--trace 1`` reports the per-layer metrics of
traced sweeps.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import inputs  # noqa: E402

SETUP_REPEATS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_CODE = """
import json, sys
sys.path.insert(0, "src")
from warpquot import cli
for ref, seed in json.loads(sys.argv[1]):
    cli.resolve_scenario(ref, seed=seed)
"""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(refs: list, env: dict) -> tuple[float, list[float]]:
    """Median wall time of a fresh interpreter importing warpquot.cli and
    resolving every input once; and every repeat's time."""
    raw = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(refs)],
                       cwd=ROOT, env=env, check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
    return statistics.median(raw), raw


def machine() -> dict:
    import importlib.metadata as md
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "warpquot").glob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": md.version("numpy"), "scipy": md.version("scipy"),
            "src_lines": src_lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="warpquot benchmark (one run)")
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ns = ap.parse_args(argv)

    if not (ROOT / "src" / "warpquot" / "cli.py").is_file():
        print(f"no warpquot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    t_begin = time.perf_counter()
    out = ROOT / ".bench_out" / ns.workload
    inps = inputs.generate(ns.workload, ns.seed, out / "inputs")
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps(inps, indent=1) + "\n", encoding="utf-8")
    env = worker_env()

    metrics, setup_raw = {}, []
    if not ns.trace:
        refs = sorted({(i["ref"], i["cli_seed"]) for i in inputs.timed_mix(inps)})
        metrics["setup_s"], setup_raw = setup_seconds(refs, env)
    budget = DEADLINE_S - (time.perf_counter() - t_begin)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--manifest", str(manifest),
         "--reports", str(out / "reports"), "--seconds", str(ns.seconds),
         "--trace", str(ns.trace)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=budget)
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics.update(res["metrics"])

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if ns.trace else "end_to_end"]}
    info = machine()
    print(f"workload {ns.workload} seed {ns.seed} trace {ns.trace}: "
          + ", ".join(f"{k} {v}" for k, v in info.items()))
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:14.6g} {unit}")
    print(f"  failed {res['failed']} of {res['attempted']} invocations")
    for f in res["failures"]:
        print(f"  FAIL {f['input']} {f['command']}: {'; '.join(f['reasons'])}")
    for k in res["known_defects"]:
        state = "reproduced" if k["reproduced"] else "NO LONGER REPRODUCED"
        print(f"  known defect {state}, outside the timed mix: {k['input']} {k['command']}: "
              f"{'; '.join(k['reasons']) or 'passes'} ({k['defect']})")
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    (out / f"result-seed{ns.seed}-trace{ns.trace}.json").write_text(
        json.dumps({**result, "machine": info, "failures": res["failures"],
                    "known_defects": res["known_defects"],
                    "setup_raw": setup_raw, "raw_times": res["raw_times"],
                    "probes": res["probes"]}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
