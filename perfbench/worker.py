"""One sympwalk CLI call in a fresh process, as a CLI user makes it.

Usage: python3 worker.py SRC_DIR

The worker imports `sympwalk.cli` from SRC_DIR and prints `ready`, so the
parent can time set-up.  It then reads one JSON request line
{"argv": [...], "trace": bool} from stdin, calls
`sympwalk.cli.main(argv)` with stdout captured, and prints one JSON result
line.  The lru caches start cold because the process is new.

Right after the call the worker times the speed probes (probe.py), so the parent can correct its times for how fast this shared
machine ran.
"""

import io
import json
import resource
import sys
import time
import traceback


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main():
    sys.path.insert(0, sys.argv[1])
    import sympwalk.cli as cli

    out = sys.stdout
    out.write("ready\n")
    out.flush()
    request = json.loads(sys.stdin.readline())
    argv = request["argv"]
    tracer = None
    if request["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    captured = io.StringIO()
    error = None
    code = None
    sys.stdout = captured
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        code = tracer.call(cli.main, argv) if tracer else cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        error = traceback.format_exc()
    finally:
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        sys.stdout = out
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    import probe  # only now, so that it cannot add to the peak above

    result = {
        "exit": code,
        "error": error,
        "stdout": captured.getvalue(),
        "wall_s": wall,
        "cpu_s": cpu,
        "probe_s": probe.probe_s(),
        "peak_rss_mb": peak_rss_mb,
        "trace": tracer.summary() if tracer else None,
    }
    out.write(json.dumps(result) + "\n")
    out.flush()


if __name__ == "__main__":
    main()
