"""Fresh-process helpers started by run.py.

    probe.py setup <workload> <seed>   import posreal, run the workload's first
                                       request; print {"setup_s", "import_s"}
    probe.py startup                   print {"import_s"} for `import posreal.cli`
    probe.py cli <span file> ARGS...   run the CLI with ARGS under the tracer,
                                       write its spans, exit with its code
"""

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


def setup(workload: str, seed: int) -> dict:
    t0 = time.perf_counter()
    if workload == "cli_files":
        import contextlib
        import io

        import posreal.cli

        t1 = time.perf_counter()
        argv = ["realize", str(BENCH.parent / "problems" / "example1.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = posreal.cli.main(argv)
        if rc != 0:
            raise SystemExit(f"first request exited {rc}")
    else:
        import posreal  # noqa: F401

        t1 = time.perf_counter()
        import workloads

        req = getattr(workloads, workload)(seed, 1)[0]
        req.call()
    return {"setup_s": time.perf_counter() - t0, "import_s": t1 - t0}


def startup() -> dict:
    t0 = time.perf_counter()
    import posreal.cli  # noqa: F401

    return {"import_s": time.perf_counter() - t0}


def traced_cli(span_file: str, argv) -> int:
    import posreal.cli
    import tracer

    tr = tracer.Tracer()
    tr.install()
    tr.enable()
    try:
        rc = posreal.cli.main(argv)
    finally:
        tr.disable()
        tracer.dump_spans(tr.take(), span_file)
    return rc


if __name__ == "__main__":
    cmd = sys.argv[1]
    if cmd == "setup":
        print(json.dumps(setup(sys.argv[2], int(sys.argv[3]))))
    elif cmd == "startup":
        print(json.dumps(startup()))
    elif cmd == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    else:
        raise SystemExit(f"unknown probe {cmd!r}")
