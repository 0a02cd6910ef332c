"""Self-tests of the benchmark harness.

Usage (from the repository root):

    python3 perfbench/selftest.py          # about 20 s
    python3 perfbench/selftest.py --slow   # adds the traced chain --n 3 --q 2 (about 90 s)

Prints one PASS/FAIL line per test and exits 1 if any failed.
"""

import json
import sys
import time
import types
from fractions import Fraction

import run
import tracing
import workloads
from workloads import WORKLOADS, CheckFailed

ENV = run.worker_env()


def _expect_failure(workload, refs, argv, stdout):
    try:
        workloads.verify(workload, refs, argv, stdout)
    except CheckFailed:
        return
    raise AssertionError("a wrong output passed the check")


def _call(workload_name, seed=0, trace=False):
    argv = WORKLOADS[workload_name].argv(seed, 0)
    sample = run.call(argv, trace, ENV, WORKLOADS[workload_name].probe)
    assert sample["error"] is None, sample["error"]
    return argv, sample


def test_reference_outputs_pass():
    refs = workloads.load_refs()
    for name, workload in WORKLOADS.items():
        workload.prepare()
        argv, sample = _call(name)
        workloads.verify(workload, refs, argv, sample["stdout"])


def test_wrong_digest_fails():
    refs = workloads.load_refs()
    workload = WORKLOADS["bounds-n10-q3"]
    workload.prepare()
    argv, sample = _call("bounds-n10-q3")
    _expect_failure(workload, refs, argv, sample["stdout"] + " ")
    wrong = {**refs, workload.name: {"*": "0" * 64}}
    _expect_failure(workload, wrong, argv, sample["stdout"])


def test_perturbed_fraction_fails():
    """A perturbed value fails both the digest and the mathematical check."""
    refs = workloads.load_refs()
    chain = WORKLOADS["chain-n2-q3"]
    chain.prepare()
    argv, sample = _call("chain-n2-q3")
    data = json.loads(sample["stdout"])
    for k, value in ((0, Fraction(0)), (12, Fraction(1, 2))):
        bad = json.loads(sample["stdout"])
        bad["tv"][k]["tv"] = f"{value.numerator}/{value.denominator}"
        text = json.dumps(bad, indent=2) + "\n"
        _expect_failure(chain, refs, argv, text)
        try:
            chain.check(text)
        except CheckFailed:
            continue
        raise AssertionError(f"tv({k}) = {value} passed the bound sandwich")
    # one unit more in the last place of an exact Fraction: the digest catches it
    tv1 = Fraction(data["tv"][1]["tv"])
    data["tv"][1]["tv"] = f"{tv1.numerator + 1}/{tv1.denominator}"
    _expect_failure(chain, refs, argv, json.dumps(data, indent=2) + "\n")

    sim = WORKLOADS["simulate-n2-q2"]
    sim.prepare()
    argv, sample = _call("simulate-n2-q2")
    lines = sample["stdout"].splitlines(keepends=True)
    k, tv, err = lines[3].strip().split(",")
    lines[3] = f"{k},{float(tv) + 0.1!r},{err}\n"
    try:
        sim.check("".join(lines))
    except CheckFailed:
        return
    raise AssertionError("an estimate 0.1 off the exact TV passed")


def test_failures_are_counted_not_fatal():
    failing = run.call(["chain", "--n", "not-a-number"], False, ENV, "mixed")
    assert failing["error"] and not failing["ok"], failing
    raising = run.call(["simulate", "--n", "2", "--q", "257", "--steps", "1", "--trials", "4"], False, ENV, "mixed")
    assert raising["error"] and not raising["ok"], raising

    class NeverRight(workloads.Bounds):
        def check(self, stdout):
            raise CheckFailed("always wrong")

    never = NeverRight("bounds-n10-q3", 10, 3, "4..18")
    samples = run.measure(never, 0, 0.5, False)
    assert samples and all(not s["ok"] and "always wrong" in s["error"] for s in samples)
    result = run.end_to_end(samples)
    assert result["wall_s"]["value"] > 0


def test_counts_repeat_across_traced_runs():
    expected = {
        "chain-n2-q3": ("engine.congruences", 468 * 1041 + 468 * 1040),
        "simulate-n2-q2": ("walk.classified_states", 28),
    }
    for name, (metric, value) in expected.items():
        counts = []
        for _ in range(2):
            _, sample = _call(name, trace=True)
            counts.append(run.layer_values(sample)[metric])
        assert counts == [value, value], (name, metric, counts)


def test_traced_stdout_is_identical():
    for name in WORKLOADS:
        _, plain = _call(name)
        _, traced = _call(name, trace=True)
        assert traced["stdout"] == plain["stdout"], name
        assert not traced["trace"]["absent"], traced["trace"]["absent"]


def test_seed_makes_the_argv():
    for workload in WORKLOADS.values():
        first = [workload.argv(7, i) for i in range(20)]
        assert first == [workload.argv(7, i) for i in range(20)]
        assert first != [workload.argv(8, i) for i in range(20)]
    # the worker runs exactly the argv it is given: its stdout equals an
    # in-process call of the CLI with that argv
    import contextlib
    import io

    import sympwalk.cli as cli

    argv = ["spectrum", "--n", "2", "--q", "3", "--seed", "5"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    sample = run.call(argv, False, ENV, "mixed")
    assert sample["stdout"] == buf.getvalue()


def test_tracer_self_time_absent_and_restore():
    fake = types.ModuleType("sympwalk._tracer_selftest")

    def inner():
        time.sleep(0.05)
        return [1, 2, 3]

    def outer():
        time.sleep(0.05)
        return fake.inner() + fake.inner()

    fake.inner, fake.outer = inner, outer
    sys.modules[fake.__name__] = fake
    try:
        spans = (
            ("outer", fake.__name__, "outer", None),
            ("inner", fake.__name__, "inner", lambda a, r: len(r)),
            ("gone", fake.__name__, "no_such_function", None),
        )
        tracer = tracing.Tracer(spans)
        assert tracer.call(lambda: fake.outer()) == [1, 2, 3, 1, 2, 3]
        assert fake.outer is outer and fake.inner is inner, "originals not restored"
        assert tracer.absent == [f"{fake.__name__}.no_such_function"]
        assert tracer.work["inner"] == 6 and tracer.calls["inner"] == 2
        assert 0.04 < tracer.self_time["outer"] < 0.08, tracer.self_time
        assert 0.09 < tracer.inclusive["inner"] < 0.15, tracer.inclusive
        assert tracer.self_time["cli"] < 0.01
    finally:
        del sys.modules[fake.__name__]


def test_benchmark_json_matches_run():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == [*run.PER_LAYER, *run.SAMPLE_LAYER]


def test_slow_chain_n3_q2_congruences():
    argv = ["chain", "--n", "3", "--q", "2", "--kmax", "12", "--format", "json"]
    sample = run.call(argv, True, ENV, "mixed")
    assert sample["error"] is None, sample["error"]
    count = run.layer_values(sample)["engine.congruences"]
    assert count == 54_246_528, count


def main():
    sys.path.insert(0, str(run.SRC))
    tests = [v for k, v in globals().items() if k.startswith("test_") and "slow" not in k]
    if "--slow" in sys.argv[1:]:
        tests.append(test_slow_chain_n3_q2_congruences)
    failed = 0
    for test in tests:
        try:
            test()
            print(f"PASS {test.__name__}")
        except Exception as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {type(exc).__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
