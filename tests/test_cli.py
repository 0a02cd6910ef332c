import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sympwalk import _engine
from sympwalk.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_spectrum_csv(capsys):
    code, out = run_cli(capsys, "spectrum", "--n", "2", "--q", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["phi"] for r in rows] == ["1", "1/15", "-1/3"]
    assert [r["multiplicity"] for r in rows] == ["1", "20", "7"]


def test_spectrum_json_schema(capsys):
    code, out = run_cli(capsys, "spectrum", "--n", "3", "--q", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 3 and data["q"] == 2
    for line in data["lines"]:
        assert set(line) == {"lambda", "phi", "multiplicity", "type_count"}
        for item in line["lambda"]:
            assert set(item) == {"degree", "partition", "orbit"}
    code, out = run_cli(capsys, "spectrum", "--n", "2", "--q", "2", "--format", "json")
    data = json.loads(out)
    assert data["n"] == 2 and data["q"] == 2
    assert [line["phi"] for line in data["lines"]] == ["1", "1/15", "-1/3"]
    assert [line["multiplicity"] for line in data["lines"]] == ["1", "20", "7"]
    assert data["lines"][1]["lambda"] == [{"degree": 1, "partition": [2], "orbit": 0}]


def test_spectrum_n1(capsys):
    code, out = run_cli(capsys, "spectrum", "--n", "1", "--q", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1 and rows[0]["phi"] == "1"


def test_chain_csv_has_exact_tv(capsys):
    code, out = run_cli(capsys, "chain", "--n", "2", "--q", "2", "--kmax", "4")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[1]["k"] == "1" and rows[1]["tv"] == "13/28"
    assert rows[2]["tv"] == "19/140"
    assert all(r["stderr"] == "" for r in rows)


def test_chain_json(capsys):
    code, out = run_cli(capsys, "chain", "--n", "2", "--q", "2", "--kmax", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["num_states"] == 28
    assert data["transition"][0] == ["0", "1", "0"]
    assert data["lumps"][1]["stationary"] == "15/28"


def test_bounds_csv_monotone(capsys):
    code, out = run_cli(capsys, "bounds", "--n", "4", "--q", "2", "--k-range", "2..8")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    uppers = [float(r["tv_upper"]) for r in rows]
    assert all(b <= a for a, b in zip(uppers, uppers[1:]))
    assert all(r["mode"] == "exact" for r in rows)


def test_bounds_with_exact_merges_chain(capsys):
    code, out = run_cli(
        capsys, "bounds", "--n", "2", "--q", "2", "--k-range", "1..4", "--with-exact"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["tv_exact"] == "13/28"
    # sandwich within the report
    for r in rows:
        if r["tv_exact"]:
            num, _, den = r["tv_exact"].partition("/")
            tv = int(num) / int(den or "1")
            assert tv <= float(r["tv_upper"]) + 1e-12


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit before 3.10.7"
)
@pytest.mark.parametrize(
    "argv, column",
    [
        (("chain", "--n", "2", "--q", "2", "--kmax", "600"), "tv"),
        (("bounds", "--n", "2", "--q", "2", "--k-range", "600..600", "--with-exact"), "tv_exact"),
    ],
)
def test_exact_rationals_print_beyond_the_digit_limit(capsys, argv, column):
    """Exact TV values print in full past Python's int-to-str digit limit
    (4,300 digits by default, passed near k = 3,700 at (2,2); lowered here
    to its 640-digit minimum, passed before k = 600), and the CLI restores
    the limit it found."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = run_cli(capsys, *argv)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    tv = list(csv.DictReader(io.StringIO(out)))[-1][column]
    num, _, den = tv.partition("/")
    assert len(den) > 640 and 0 < int(num) < int(den)


def test_simulate_deterministic(capsys):
    args = ("simulate", "--n", "2", "--q", "2", "--steps", "2", "--trials", "20000", "--seed", "7")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = list(csv.DictReader(io.StringIO(out1)))
    assert [r["k"] for r in rows] == ["0", "1", "2"]
    assert float(rows[1]["tv"]) == pytest.approx(13 / 28, abs=1e-12)


def test_verify_suite_filter(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "spectral", "--max-n", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert lines and all(l.startswith("PASS spectral.") for l in lines)


def test_verify_json(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "combinat", "--max-n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert all(r["ok"] for r in data)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chain", "--q", "2"])  # missing --n
    assert exc.value.code == 1


def test_unknown_suite_is_usage_error(capsys):
    code = main(["verify", "--suite", "spectral", "--max-n", "2"])
    assert code == 0
    # argparse rejects unknown choices before dispatch
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 1


def test_resource_cap_exit_code(capsys):
    code = main(["chain", "--n", "5", "--q", "3", "--kmax", "2"])
    assert code == 3


def test_chain_work_cap_exits_before_any_work(capsys):
    # (5,2) needs 27 lumps x 86,955 images, above the default cap
    start = time.perf_counter()
    code = main(["chain", "--n", "5", "--q", "2"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("resource cap:") and "Traceback" not in err
    assert elapsed < 1.0


def test_simulate_field_beyond_uint8_is_resource_cap(capsys):
    # the chain passes this work cap, then stops before listing the 2-planes
    for argv in (
        ["simulate", "--n", "2", "--q", "257", "--steps", "1", "--trials", "10"],
        ["chain", "--n", "2", "--q", "257", "--state-cap", "1000000000000000"],
    ):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("resource cap:") and "Traceback" not in err


@pytest.mark.parametrize(
    "steps, trials", [("99999999", "10"), ("2000000", "10"), ("1", "1" + "0" * 30)],
    ids=["huge-steps", "large-steps", "huge-trials"],
)
def test_simulate_beyond_the_work_budget_exits_before_any_draw(capsys, monkeypatch, steps, trials):
    def no_start(*args):
        raise AssertionError("a Monte Carlo batch was started")

    monkeypatch.setattr(_engine.Lanes, "start", no_start)
    start = time.perf_counter()
    code = main(["simulate", "--n", "2", "--q", "2", "--steps", steps, "--trials", trials])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("resource cap:") and "Traceback" not in err
    assert elapsed < 1.0


def test_out_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code = main(["spectrum", "--n", "2", "--q", "2", "--out", str(path)])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    assert rows[0]["phi"] == "1"


def test_p_k_field_selection(capsys):
    code, out = run_cli(capsys, "spectrum", "--n", "2", "--p", "2", "--k", "1")
    assert code == 0
    assert "1/15" in out


def test_p_without_k_is_usage_error(capsys):
    # field flags that would be ignored are usage errors, not silent choices
    for argv, message in (
        (["spectrum", "--n", "2", "--p", "3"], "--p needs --k"),
        (["spectrum", "--n", "2", "--k", "3"], "--k needs --p"),
        (["spectrum", "--n", "2", "--q", "4", "--p", "3", "--k", "1"], "--q excludes --p and --k"),
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_bounds_logfloat_large_n(capsys):
    code, out = run_cli(
        capsys, "bounds", "--n", "12", "--q", "2", "--k-range", "12..22", "--logfloat"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    uppers = [float(r["tv_upper"]) for r in rows]
    assert all(b <= a for a, b in zip(uppers, uppers[1:]))
    assert all(r["mode"] == "logfloat" for r in rows)


def test_enumeration_cap_exit_code(capsys):
    # verify checks the cap before any suite enumerates a label, chain and
    # simulate before the lump count and the stationary law enumerate them
    for argv in (
        ["spectrum", "--n", "15", "--q", "2"],
        ["bounds", "--n", "15", "--q", "2", "--k-range", "15..15"],
        ["verify", "--max-n", "15"],
        ["chain", "--n", "15", "--q", "3"],
        ["simulate", "--n", "15", "--q", "3", "--steps", "1", "--trials", "2"],
    ):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "resource cap: n=15 beyond enumeration cap 14\n"
        assert elapsed < 1.0


def test_field_cap_exits_before_q_is_factored(capsys):
    # q = 2^61 - 1 and p = 10^18 + 3 are prime: trial division up to q, resp.
    # sqrt(p), would run for hours; 3^(10^8) would take minutes to form
    for argv, message in (
        (["spectrum", "--n", "2", "--q", "2305843009213693951"], "q = 2305843009213693951 exceeds cap"),
        (["bounds", "--n", "2", "--p", "1000000000000000003", "--k", "1", "--k-range", "1..2"],
         "q = 1000000000000000003^1 exceeds cap"),
        (["spectrum", "--n", "2", "--p", "3", "--k", "100000000"], "q = 3^100000000 exceeds cap"),
    ):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith(f"resource cap: {message}")
        assert elapsed < 1.0


def test_exact_bound_beyond_work_cap_is_resource_cap(capsys):
    t0 = time.perf_counter()
    code = main(["bounds", "--n", "3", "--q", "2", "--k-range", "1000000..1000000", "--exact"])
    captured = capsys.readouterr()
    assert time.perf_counter() - t0 < 1
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("resource cap:")


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--n", "3", "--q", "2", "--k-range", "1..99999999999"],
        ["bounds", "--n", "3", "--q", "2", "--k-range", "1..99999999999", "--exact"],
        ["bounds", "--n", "2", "--q", "2", "--k-range", "1..9999", "--with-exact"],
        ["chain", "--n", "2", "--q", "3", "--kmax", "99999999999"],
        ["chain", "--n", "2", "--q", "2", "--kmax", "9999", "--format", "json"],
    ],
    ids=["bounds-auto", "bounds-exact", "bounds-with-exact", "chain", "chain-json"],
)
def test_huge_step_ranges_exit_3_before_any_work(capsys, monkeypatch, argv):
    import sympwalk.walk as walk

    def no_build(*args, **kwargs):
        raise AssertionError("the chain was built")

    monkeypatch.setattr(walk, "exact_form_chain", no_build)
    t0 = time.perf_counter()
    code = main(argv)
    captured = capsys.readouterr()
    assert time.perf_counter() - t0 < 1
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("resource cap:") and "Traceback" not in captured.err


def test_bound_beyond_the_float_range_prints_1(capsys):
    # the logfloat bound at (9, 1000003), k = 1, overflows a float
    code, out = run_cli(capsys, "bounds", "--n", "9", "--q", "1000003", "--k-range", "1..1")
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["tv_upper"] == "1.0" and row["mode"] == "logfloat"


def test_long_auto_range_falls_back_to_logfloat_at_once(capsys):
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "bounds", "--n", "8", "--q", "2", "--k-range", "1..3000")
    assert time.perf_counter() - t0 < 5
    assert code == 0
    assert {r["mode"] for r in csv.DictReader(io.StringIO(out))} == {"logfloat"}


def test_tiny_upper_bound_prints_smallest_normal_float(capsys):
    # the logfloat bound at (10, 3) underflows from k = 332 on
    code, out = run_cli(capsys, "bounds", "--n", "10", "--q", "3", "--k-range", "330..360")
    assert code == 0
    uppers = [float(r["tv_upper"]) for r in csv.DictReader(io.StringIO(out))]
    assert len(uppers) == 31
    assert all(u >= sys.float_info.min for u in uppers)
    assert uppers[-1] == sys.float_info.min
    assert all(b <= a for a, b in zip(uppers, uppers[1:]))


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["spectrum", "--n", "2", "--q", "2"]
    _, want = run_cli(capsys, *argv)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "sympwalk", *argv], capture_output=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want.encode()  # bytes: the CSV rows end in \r\n


def test_chain_and_simulate_leave_numpy_ma_unimported():
    """np.unique with neither return_index nor return_inverse, or with axis,
    imports numpy.ma on its first call, about 13 ms; no call on the chain or
    Monte Carlo path makes one."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = (
        "import contextlib, io, sys\n"
        "from sympwalk.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['chain', '--n', '2', '--q', '3']) == 0\n"
        "    assert main(['simulate', '--n', '2', '--q', '2', '--steps', '2', '--trials', '1000']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == ["False"]


def test_verify_default_run_passes(capsys):
    code, out = run_cli(capsys, "verify", "--max-n", "3", "--trials", "5000")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    suites = {l.split()[1].split(".")[0] for l in lines}
    assert suites == {"field", "linalg", "combinat", "spectral", "bounds", "walk"}
    assert all(l.startswith("PASS") for l in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "2", "--steps", "1", "--trials", "0"],
        ["simulate", "--n", "2", "--steps", "1", "--trials", "-5"],
        ["simulate", "--n", "2", "--steps", "-1", "--trials", "10"],
        ["chain", "--n", "2", "--kmax", "-1"],
        ["simulate", "--n", "2", "--q", "6", "--steps", "1", "--trials", "10"],
        ["chain", "--n", "2", "--p", "4", "--k", "1"],
        ["spectrum", "--n", "0"],
        ["spectrum", "--n", "-1"],
        ["bounds", "--n", "0", "--k-range", "1..2"],
        ["bounds", "--n", "-1", "--k-range", "1..2"],
        ["verify", "--max-n", "1", "--suite", "spectral"],
        ["verify", "--max-n", "0", "--suite", "bounds"],
    ],
)
def test_bad_counts_are_usage_errors(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "argv, n",
    [
        (["chain", "--n", "0"], 0),
        (["chain", "--n", "-2"], -2),
        (["simulate", "--n", "0", "--steps", "1", "--trials", "10"], 0),
    ],
)
def test_walk_below_n2_names_the_given_n(capsys, argv, n):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: need n >= 2, got {n}")


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    code = main(["chain", "--n", "2", "--out", str(tmp_path / "missing" / "x")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "2", "--steps", "1", "--trials", "10", "--format", "json"],
        ["verify", "--suite", "field", "--n", "2"],
        ["chain", "--n", "2", "--enum-cap", "3"],
        ["bounds", "--n", "2", "--k-range", "1..2", "--exact", "--logfloat"],
    ],
)
def test_flags_a_subcommand_ignores_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _bench_workloads()
BENCH_CALLS = [
    (name, seed)
    for name, workload in BENCH.WORKLOADS.items()
    for seed in ((0, 1) if workload.seeded else (0,))
]


@pytest.mark.parametrize("name, seed", BENCH_CALLS, ids=[f"{n}-{s}" for n, s in BENCH_CALLS])
def test_benchmark_outputs_match_pinned_digests(capsys, name, seed):
    """The benchmark's exact argv gives the stdout pinned in perfbench/refs.json."""
    workload = BENCH.WORKLOADS[name]
    argv = workload.argv(seed, 0)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert BENCH.digest(out) == BENCH.load_refs()[name][workload.ref_key(argv)]


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (
            ["bounds", "--n", "12", "--q", "2", "--k-range", "1..16"],
            "8c11c58fce7a12d9882bb45e69da159fb1998648ca4bfac0aa8ee4fe71bfcfa0",
        ),
        (
            ["bounds", "--n", "6", "--q", "3", "--k-range", "1..8", "--format", "json"],
            "6f4e2f37a7d5e92a97e9b32128c9642954a96f20eb2455034433f505bbeec76f",
        ),
    ],
    ids=["n12-q2-logfloat-csv", "n6-q3-exact-json"],
)
def test_bounds_output_is_pinned(capsys, argv, sha256):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


SPECTRUM_BOUNDS_DIGESTS = {
    ("spectrum", "--n", "1", "--q", "2", "--format", "csv"):
        "143264e0dd0d7c3f31d91180b55b7aedaf61433e9ae5591fbc668f588d565694",
    ("spectrum", "--n", "1", "--q", "2", "--format", "json"):
        "47bfac11ceecc9c38e749aabe61703a4313fa245bdfaeb7ec3018f1946547d2d",
    ("spectrum", "--n", "3", "--q", "3", "--format", "csv"):
        "e5ba68adc98c76c826324d76bf145e499d701e23b124851444974707096018dc",
    ("spectrum", "--n", "3", "--q", "3", "--format", "json"):
        "727612c3d15cbb00fdfdabb6485a1a87e1d3a71d44b28ee1d19b96f2827d4b13",
    ("spectrum", "--n", "6", "--q", "5", "--format", "csv"):
        "e5f667d6621d0f6912347852c7e7305b042fa849335863594f7b1f34f837cead",
    ("spectrum", "--n", "6", "--q", "5", "--format", "json"):
        "7eeb55d94228e4bf37b131ccf02fd7fe8253a8f871cd480755e926f3b2285f4e",
    ("bounds", "--n", "10", "--q", "3", "--k-range", "4..18", "--format", "csv"):
        "df8fd88ef9f11e4f5976c915aa9694ba8530820e1ec98b91af63e6b34346b56e",
    ("bounds", "--n", "10", "--q", "3", "--k-range", "4..18", "--format", "json"):
        "7a03b637666697ab76c955f95ef6d542f0a79609591ae93a0e8c4039326f72fb",
    ("bounds", "--n", "14", "--q", "2", "--k-range", "1..20", "--format", "csv"):
        "6fa9aa8a3ef34aaa0e910636e3a126b1aba28336d4fa1a2a38072f08731b7a38",
    ("bounds", "--n", "14", "--q", "2", "--k-range", "1..20", "--format", "json"):
        "df015eb9193264d7b1488232d7d01645fc374ee8270cf3481b3a110b27173f9a",
}


def test_spectrum_and_bounds_output_is_pinned(capsys):
    """stdout of `spectrum` and `bounds` in both formats, byte for byte."""
    for argv, sha256 in SPECTRUM_BOUNDS_DIGESTS.items():
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256, argv
