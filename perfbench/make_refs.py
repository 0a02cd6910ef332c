"""Regenerate refs.json: the SHA-256 of every benchmark call's stdout.

Usage (from the repository root): python3 perfbench/make_refs.py

Each call runs through the benchmark's own worker, and a digest is pinned
only if the output passes the workload's mathematical check.  Run it on a
commit whose outputs are known good; a change that alters any output byte
then shows up as a failed benchmark check.
"""

import json
import sys

import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    env = run.worker_env()
    refs = {}
    for name, workload in workloads.WORKLOADS.items():
        workload.prepare()
        seeds = workloads.SIM_SEEDS if workload.seeded else (0,)
        refs[name] = {}
        for seed in seeds:
            argv = workload.argv(seed, 0)
            sample = run.call(argv, False, env, workload.probe)
            if sample["error"]:
                sys.exit(f"{argv}: {sample['error']}")
            workload.check(sample["stdout"])
            refs[name][workload.ref_key(argv)] = workloads.digest(sample["stdout"])
        print(f"{name}: {len(refs[name])} digests")
    workloads.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
