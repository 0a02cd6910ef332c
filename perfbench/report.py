"""Run every workload once, end to end and traced, and print every metric.

Usage (from the repository root):

    python3 perfbench/report.py [--write PATH]

Runs `run.py` for each workload in turn (one at a time), with seed 1 and
the `run_seconds` of BENCHMARK.json, first with --trace 0 and then with
--trace 1, and prints every end-to-end metric by
name and unit, each workload's fail rate and the dominant span's share.
--write also saves the machine description, every metric, the mapping of
each per-layer metric to what it should move, and every call's raw sample
as JSON.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy

import run
import workloads

DOMINANT = {
    "chain-n2-q3": "share.congruence",
    "simulate-n2-q2": "share.mc_step",
    "simulate-n3-q3": "share.classify",
    "bounds-n10-q3": "share.lower_bound",
}
SEED = 1


def machine():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_thread_cap": {var: str(os.cpu_count()) for var in run.THREAD_VARS},
    }


def bench(name, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=run.ROOT,
    )
    lines = out.stdout.splitlines()
    raw = next(line[4:] for line in lines if line.startswith("RAW "))
    return json.loads(lines[-1]), json.loads(raw)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", default=None)
    args = parser.parse_args()
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    record = {"machine": machine(), "seed": SEED, "seconds": seconds, "workloads": {}}
    print(json.dumps(record["machine"]))
    for name in workloads.WORKLOADS:
        e2e, e2e_raw = bench(name, SEED, seconds, 0)
        layers, _ = bench(name, SEED, seconds, 1)
        fail_rate = (e2e["failed"] + layers["failed"]) / (e2e["attempted"] + layers["attempted"])
        print(f"{name}: {e2e['attempted']} calls, fail_rate {fail_rate:.4f}")
        for metric, m in e2e["metrics"].items():
            print(f"  {metric:12s} {m['value']:.6g} {m['unit']}")
        dominant = DOMINANT[name]
        print(f"  {dominant} {layers['metrics'][dominant]['value']:.3f}; "
              f"trace.overhead_s {layers['metrics']['trace.overhead_s']['value']:.4f}")
        record["workloads"][name] = {
            "fail_rate": fail_rate,
            "end_to_end": e2e,
            "per_layer": layers,
            "raw": e2e_raw,
        }
    record["per_layer_moves"] = {
        **{name: moves for name, (_, _, moves) in run.PER_LAYER.items()},
        **{name: moves for name, (_, moves) in run.SAMPLE_LAYER.items()},
    }
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
