"""One errlab CLI invocation in a fresh interpreter.

Usage: python3 bench/worker.py ROOT SPEC_JSON

Imports ``errlab.cli`` from ROOT/src, prints ``ready`` (the parent times
set-up up to this line), and, unless SPEC asks for set-up only, runs
``errlab.cli.main(SPEC["argv"])``.  The last stdout line is a JSON object
with the exit code, the wall time of ``main``, the process's peak RSS and
the captured stderr.  With ``SPEC["spans"]`` set, the scalar-kernel probes
run first, the layers are traced, and the spans are written to that path.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def peak_rss_kb() -> int:
    """This process's own peak RSS.

    ru_maxrss also counts the parent's RSS at fork time, which Linux carries
    across exec; VmHWM belongs to the new address space alone.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    root, spec = sys.argv[1], json.loads(sys.argv[2])
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import errlab.cli

    if not os.path.abspath(errlab.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"errlab was imported from {errlab.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if spec.get("setup_only"):
        return 0

    result = {}
    tracer = None
    if spec.get("spans"):
        import layers

        result["probes"] = layers.probe_exactnum()
        tracer = layers.Tracer()
        layers.install(tracer)
    err = io.StringIO()
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = errlab.cli.main(spec["argv"])
    except Exception:
        rc = None
        result["exception"] = traceback.format_exc()
    result["wall_s"] = time.perf_counter() - start
    result["cpu_s"] = time.process_time() - cpu
    result["peak_rss_mb"] = peak_rss_kb() / 1024
    result["rc"] = rc
    result["stderr"] = err.getvalue()
    if tracer is not None:
        tracer.dump(spec["spans"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
