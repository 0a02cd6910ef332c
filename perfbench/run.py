"""The sympwalk benchmark: timed, exactness-checked CLI calls.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

For S seconds the benchmark repeats the workload's `sympwalk` CLI call
(workloads.py), each in a fresh worker process (worker.py) so lru caches
start cold, one worker at a time, with BLAS and OpenMP threads capped at
the CPU count and bytecode caching on.  Every output is checked for exactness; a failed check, an
exception or a non-zero exit counts in `failed` and never stops the run.

Times are reported at one reference machine speed: each worker times the
speed probes (probe.py) right after its call, and every time it measured is
scaled by a probe's reference time over its probe time, because the CPU
speed of the shared host drifts by tens of percent over minutes.  Set-up is
scaled by the "mixed" probe, the call and its layers by the workload's
probe.  The unscaled medians are printed too.

--trace 0 reports the end-to-end metrics of untraced calls.  --trace 1
alternates untraced and traced calls of the same argv, requires their
stdout to be byte-identical, and reports the per-layer metrics of the
traced calls (tracing.py) plus the tracing overhead.

The last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}; the line before it, `RAW {...}`, holds every call's sample.
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

import probe
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
CALL_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# name -> (unit, meaning); times are scaled to the reference speed
END_TO_END = {
    "wall_s": ("s", "median time of main(argv), lru-cache fills included"),
    "wall_tail_s": ("s", "slowest of the same times with ten or more slower ones"),
    "setup_s": ("s", "median time from worker start to sympwalk.cli imported"),
    "peak_rss_mb": ("MB", "median peak resident memory of a worker"),
}
TIME_UNITS = ("s", "ms")

CHAIN = "wall_s and peak_rss_mb on chain-n2-q3"
MC_STEP = "wall_s on simulate-n2-q2"
CLASSIFY = "wall_s on simulate-n3-q3 (about 0 on simulate-n2-q2)"
BOUNDS = "wall_s on bounds-n10-q3"
ALL = "wall_s on every workload"


def _self(span):
    return lambda t: t["self"].get(span, 0.0)


def _work(span):
    return lambda t: t["work"].get(span, 0)


def _calls(span):
    return lambda t: t["calls"].get(span, 0)


def _rate(span):
    # work per inclusive second of the span (0 when idle)
    def f(t):
        spent = t["inclusive"].get(span, 0.0)
        return t["work"].get(span, 0) / spent if spent else 0.0

    return f


def _per_work(span, scale):
    # inclusive time per unit of work (0 when idle)
    def f(t):
        work = t["work"].get(span, 0)
        return scale * t["inclusive"].get(span, 0.0) / work if work else 0.0

    return f


def _share(span):
    return lambda t: t["inclusive"].get(span, 0.0) / t["inclusive"]["cli"]


# name -> (unit, value from a trace summary, what it should move)
PER_LAYER = {
    "engine.congruence_s": ("s", _self("engine.congruence"), CHAIN),
    "engine.congruences": ("count", _work("engine.congruence"), CHAIN),
    "engine.congruences_per_s": ("1/s", _rate("engine.congruence"), CHAIN),
    "engine.closure_s": ("s", _self("engine.closure"), CHAIN),
    "engine.closure_states": ("count", _work("engine.closure"), CHAIN),
    "engine.perms_s": ("s", _self("engine.perms"), CHAIN),
    "engine.perm_table_mb": ("MB", _work("engine.perms"), CHAIN),
    "engine.lump_counts_s": ("s", _self("engine.lump_counts"), CHAIN),
    "engine.reachable_s": ("s", _self("engine.reachable"), CHAIN),
    "walk.raw_chain_self_s": ("s", _self("walk.raw_chain"), CHAIN),
    "walk.chain_self_s": ("s", _self("walk.chain"), CHAIN),
    "engine.mc_step_s": ("s", _self("engine.mc_step"), MC_STEP),
    "engine.lane_steps": ("count", _work("engine.mc_step"), MC_STEP),
    "engine.lane_steps_per_s": ("1/s", _rate("engine.mc_step"), MC_STEP),
    "engine.init_s": ("s", _self("engine.init"), MC_STEP),
    "engine.pack_s": ("s", _self("engine.pack"), MC_STEP),
    "walk.mc_self_s": ("s", _self("walk.mc"), MC_STEP),
    "walk.classify_s": ("s", _self("walk.classify"), CLASSIFY),
    "walk.classified_states": ("count", _work("walk.classify"), CLASSIFY),
    "walk.classify_ms_per_state": ("ms", _per_work("walk.classify", 1000.0), CLASSIFY),
    "linalg.class_invariant_s": ("s", _self("linalg.class_invariant"), CLASSIFY),
    "linalg.class_invariant_calls": ("count", _calls("linalg.class_invariant"), CLASSIFY),
    "linalg.factor_calls": ("count", _calls("linalg.factor"), CLASSIFY),
    "linalg.factor_s": ("s", _self("linalg.factor"), CLASSIFY),
    "engine.charpoly_s": ("s", _self("engine.charpoly"), CLASSIFY),
    "engine.rank_s": ("s", _self("engine.rank"), CLASSIFY),
    "engine.rank_mats": ("count", _work("engine.rank"), CLASSIFY),
    "walk.stationary_s": ("s", _self("walk.stationary"), ALL),
    "walk.tv_s": ("s", _self("walk.tv"), ALL),
    "combinat.labels": ("count", _work("combinat.enumerate"), BOUNDS),
    "combinat.enumerate_s": ("s", _self("combinat.enumerate"), BOUNDS),
    "combinat.anchored_labels": ("count", _work("combinat.anchored"), BOUNDS),
    "combinat.anchored_s": ("s", _self("combinat.anchored"), BOUNDS),
    "combinat.class_size_qsq_calls": ("count", _calls("combinat.class_size_qsq"), BOUNDS),
    "combinat.class_size_qsq_s": ("s", _self("combinat.class_size_qsq"), BOUNDS),
    "combinat.dim_irrep_s": ("s", _self("combinat.dim_irrep"), BOUNDS),
    "spectral.eigenvalue_calls": ("count", _calls("spectral.eigenvalue"), BOUNDS),
    "spectral.eigenvalue_s": ("s", _self("spectral.eigenvalue"), BOUNDS),
    "bounds.upper_s": ("s", _self("bounds.upper"), BOUNDS),
    "bounds.lower_s": ("s", _self("bounds.lower"), BOUNDS),
    "cli.self_s": ("s", _self("cli"), ALL),
    "share.congruence": ("fraction", _share("engine.congruence"), CHAIN),
    "share.mc_step": ("fraction", _share("engine.mc_step"), MC_STEP),
    "share.classify": ("fraction", _share("walk.classify"), CLASSIFY),
    "share.lower_bound": ("fraction", _share("bounds.lower"), BOUNDS),
    "trace.absent_spans": ("count", lambda t: len(t["absent"]), ALL),
}
# measured around the trace rather than read from it
SAMPLE_LAYER = {
    "process.cpu_s": ("s", ALL),
    "trace.overhead_s": ("s", "median traced minus median untraced wall_s"),
}


def worker_env():
    env = dict(os.environ)
    # an installed CLI runs from cached bytecode; let the first worker write it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cap = str(os.cpu_count() or 1)
    for var in THREAD_VARS:
        env[var] = cap
    return env


def call(argv, trace, env, probe_kind):
    """One CLI call in a fresh worker.  Returns its sample; never raises on
    the worker's account."""
    sample = {"argv": argv, "traced": trace, "probe": probe_kind, "ok": False, "error": None}
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), str(SRC)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    try:
        ready = proc.stdout.readline()
        sample["setup_s"] = time.perf_counter() - t0
        request = {"argv": argv, "trace": trace}
        request = json.dumps(request) + "\n" if ready == "ready\n" else None
        out, err = proc.communicate(request, timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sample["error"] = f"timed out after {CALL_TIMEOUT_S} s"
        return sample
    finally:
        if proc.poll() is None:  # only after an unexpected error here
            proc.kill()
            proc.wait()
    if ready != "ready\n" or not out:
        sample["error"] = f"worker failed (exit {proc.returncode}): {err[-2000:]}"
        return sample
    try:
        result = json.loads(out.splitlines()[-1])
    except ValueError:
        sample["error"] = f"unreadable worker result: {out[-2000:]}"
        return sample
    sample.update({k: result[k] for k in ("wall_s", "cpu_s", "probe_s", "peak_rss_mb", "trace")})
    sample["stdout"] = result["stdout"]
    if result["error"]:
        sample["error"] = result["error"][-2000:]
    elif result["exit"] != 0:
        sample["error"] = f"exit code {result['exit']}"
    return sample


def _check(sample, workload, refs):
    if sample["error"] is None:
        try:
            workloads.verify(workload, refs, sample["argv"], sample["stdout"])
            sample["ok"] = True
        except Exception as exc:  # any malformed output is a failed check
            sample["error"] = f"check failed: {type(exc).__name__}: {exc}"
    return sample


def measure(workload, seed, seconds, trace):
    """Repeat the workload's call for `seconds`; return checked samples."""
    workload.prepare()
    refs = workloads.load_refs()
    env = worker_env()
    samples = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        argv = workload.argv(seed, i)
        if not trace:
            samples.append(_check(call(argv, False, env, workload.probe), workload, refs))
        else:
            order = (False, True) if i % 2 == 0 else (True, False)
            pair = {t: _check(call(argv, t, env, workload.probe), workload, refs) for t in order}
            plain, traced = pair[False], pair[True]
            if traced["ok"] and plain["ok"] and traced["stdout"] != plain["stdout"]:
                traced["ok"] = False
                traced["error"] = "traced stdout differs from untraced stdout"
            samples += [pair[t] for t in order]
        i += 1
    return samples


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(values):
    """The highest order statistic with ten or more values beyond it (the
    smallest value when there are fewer than eleven)."""
    return sorted(values)[max(len(values) - 11, 0)] if values else 0.0


def _scale(sample, kind=None):
    """Factor that takes this worker's times to the reference speed, by the
    given probe (default: the workload's)."""
    kind = kind or sample["probe"]
    return probe.REFERENCE_S[kind] / sample["probe_s"][kind]


def end_to_end(samples):
    done = [s for s in samples if "probe_s" in s]
    timed = [s for s in done if s["ok"]] or done
    walls = [s["wall_s"] * _scale(s) for s in timed]
    values = {
        "wall_s": _median(walls),
        "wall_tail_s": _tail(walls),
        "setup_s": _median([s["setup_s"] * _scale(s, "mixed") for s in done]),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in timed]),
    }
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}


def layer_values(sample):
    """Per-layer metrics of one traced call, times at the reference speed."""
    scale = _scale(sample)
    values = {"process.cpu_s": sample["cpu_s"] * scale}
    for name, (unit, fn, _) in PER_LAYER.items():
        value = fn(sample["trace"])
        if unit in TIME_UNITS:
            value *= scale
        elif unit == "1/s":
            value /= scale
        values[name] = value
    return values


def per_layer(samples):
    traced = [s for s in samples if s["traced"] and s["ok"]]
    plain = [s for s in samples if not s["traced"] and s["ok"]]
    per_call = [layer_values(s) for s in traced]
    out = {
        name: {"value": _median([v[name] for v in per_call]), "unit": unit}
        for name, (unit, _, _) in PER_LAYER.items()
    }
    out["process.cpu_s"] = {"value": _median([v["process.cpu_s"] for v in per_call]), "unit": "s"}
    overhead = _median([s["wall_s"] * _scale(s) for s in traced]) - _median(
        [s["wall_s"] * _scale(s) for s in plain]
    )
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def _raw(sample):
    keep = ("argv", "traced", "ok", "error", "setup_s", "wall_s", "cpu_s", "probe", "probe_s", "peak_rss_mb")
    raw = {k: sample[k] for k in keep if k in sample}
    if sample.get("trace"):
        raw["layers"] = layer_values(sample)
        raw["absent"] = sample["trace"]["absent"]
    return raw


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sympwalk" / "cli.py").is_file():
        sys.exit(f"sympwalk sources not found under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    samples = measure(workload, args.seed, args.seconds, bool(args.trace))
    failed = [s for s in samples if not s["ok"]]
    metrics = per_layer(samples) if args.trace else end_to_end(samples)
    for s in failed:
        print(f"FAILED {' '.join(s['argv'])}: {s['error']}", file=sys.stderr)
    absent = sorted({a for s in samples if s.get("trace") for a in s["trace"]["absent"]})
    if absent:
        print(f"absent spans: {', '.join(absent)}", file=sys.stderr)
    print(
        f"{args.workload}: {len(samples)} calls, {len(failed)} failed, "
        f"fail_rate {len(failed) / len(samples):.4f}"
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    done = [s for s in samples if "probe_s" in s]
    print(
        f"  unscaled medians: wall_s {_median([s['wall_s'] for s in done]):.6g} s, "
        f"setup_s {_median([s['setup_s'] for s in done]):.6g} s, "
        + ", ".join(
            f"probe_s[{kind}] {_median([s['probe_s'][kind] for s in done]):.6g} s"
            for kind in probe.KERNELS
        )
    )
    print("RAW " + json.dumps([_raw(s) for s in samples]))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(samples),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
