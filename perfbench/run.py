"""Seeded benchmark of `outerspatial decide`, run from the root of a checkout.

    python3 perfbench/run.py --workload stacked --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 7    # every workload, untraced and traced

Each run starts fresh worker processes (`worker.py`) that import the
checkout's `src/outerspatial`, all on one CPU.  With `--trace 0` it reports
the end-to-end metrics: `decide_s` (seconds one pass over the workload's
cases takes, as the sum of each case's median latency), `setup_s` (median,
over ten workers, of the seconds from worker start to the first timed
operation) and `peak_rss_mb`.  Both times are nominal seconds: wall seconds
scaled by a fixed reference task timed right before and after (`speed.py`),
so that the host's drifting speed drops out; the wall figures are printed
too.  It also prints the p50 and p75 nominal latency of single operations
(for `cli`, of single cold invocations).  With `--trace 1` it reports per-layer
self seconds and call counts from spans recorded around calls into each
module, plus the tracing overhead.  `perfbench/README.md` says more.

Every metric is printed as a line with its unit and sample count, and a
record with the SHA-256 of the first pass's reports goes to
`.perfbench_out/`.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  An operation fails
when it raises, passes its wall ceiling, returns a verdict kind other than
the one its construction fixes, or gives a report that does not re-verify.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from worker import TAIL_PERCENTILE
from workloads import NAMES as WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_WORKERS = 9
WORKER_TIMEOUT_S = 170.0


def worker(args, extra: list[str], env: dict) -> tuple[float, float, subprocess.Popen]:
    """Start a worker; return the seconds and nominal seconds until it reported ready, and the process."""
    before = speed.reference_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--root", str(ROOT), *extra],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return setup, speed.nominal(setup, before, speed.reference_s()), proc


def finish(proc: subprocess.Popen) -> dict:
    """Wait for a worker; return its JSON result line (none from a set-up worker)."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker passed {WORKER_TIMEOUT_S:g} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def run_workload(args, wanted: list[dict]) -> dict:
    """One workload's result, with `metrics` as name -> (value, samples, unit)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    setups, nominal = [], []
    if not args.trace:
        for _ in range(SETUP_WORKERS):
            setup, setup_nominal, proc = worker(args, ["--setup-only"], env)
            setups.append(setup)
            nominal.append(setup_nominal)
            finish(proc)
    setup, setup_nominal, proc = worker(args, [], env)
    setups.append(setup)
    nominal.append(setup_nominal)
    result = finish(proc)
    if args.trace:
        measured = {name: (value, result["passes"]) for name, value in result["layers"].items()}
    else:
        measured = result["metrics"]
        measured["setup_s"] = (statistics.median(nominal), len(nominal))
        result["wall_setup_s"] = statistics.median(setups)
    result["metrics"] = {m["name"]: (*measured[m["name"]], m["unit"]) for m in wanted}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",),
                        help="one workload, or all of them both untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "outerspatial" / "__init__.py").is_file():
        sys.stderr.write(f"error: no src/outerspatial under {ROOT}\n")
        return 2
    # One CPU for this process and every worker and child it starts, so that
    # the reference task and the timed work run on the same (virtual) CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, trace in runs:
        one = argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})
        result = run_workload(one, spec["per_layer" if trace else "end_to_end"])
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "trace": trace, **result}
        (out_dir / f"{name}-seed{args.seed}-trace{trace}.json").write_text(
            json.dumps(record, indent=1) + "\n")
        for metric, (value, n, unit) in result["metrics"].items():
            print(f"{name:9s} {metric:40s} {value:<14.6g} {unit:6s} n={n}")
        for key in ("wall_decide_s", "wall_setup_s"):
            if key in result:
                print(f"{name:9s} {key:40s} {result[key]:<14.6g} s")
        if "latency_s" in result:
            lat = result["latency_s"]
            for pct in ("p50", f"p{TAIL_PERCENTILE}"):
                print(f"{name:9s} {'operation latency ' + pct:40s} {lat[pct]:<14.6g} "
                      f"{'s':6s} n={lat['n']}")
        print(f"{name:9s} {'attempted/failed':40s} {result['attempted']}/{result['failed']}")
        print(f"{name:9s} {'sha256 of first-pass reports':40s} {result['sha256']}")
        for err in result["errors"]:
            print(f"{name:9s} failure: {err}")
        combined["correct"] &= result["failed"] == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(runs) == 1 else f"{name}."
        for metric, (value, _, unit) in result["metrics"].items():
            combined["metrics"][prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
