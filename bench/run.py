"""errlab benchmark: timed CLI workloads in fresh single-threaded processes.

Usage, from the repository root:

    python3 bench/run.py --workload verify_mu --seed 0 --seconds 30 --trace 0

Each timed invocation runs ``errlab.cli.main(argv)`` in its own interpreter
(bench/worker.py), one at a time.  A run samples set-up (a fresh interpreter
up to ``errlab.cli`` imported) several times, makes one untimed negative
control, then repeats the workload's invocation until ``--seconds`` would be
exceeded, checking every output.  ``--trace 1`` alternates untraced and
traced invocations instead and reports the per-layer metrics.

The last stdout line is the result: ``correct``, ``attempted``, ``failed``
and the metrics named in BENCHMARK.json.  A run record with the machine,
versions, revision and every sample goes to .bench_run/records/.  See
bench/README.md for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_run")
WORKER = os.path.join(BENCH, "worker.py")

SETUP_SAMPLES = 11
MIN_INVOCATIONS = 3
WORKER_TIMEOUT_S = 150
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed invocation)."""


def spawn(spec: dict):
    """Run bench/worker.py on SPEC; return (seconds to 'ready', result or None)."""
    env = {**os.environ, **SINGLE_THREAD}
    env.pop("PYTHONPATH", None)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, ROOT, json.dumps(spec)], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    if spec.get("setup_only"):
        return ready, None
    return ready, json.loads(rest.splitlines()[-1])


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Checker:
    """Checks every invocation's output; a byte-identical repeat of an output
    that passed the full check passes too."""

    def __init__(self, workload, golden):
        self.workload = workload
        self.golden = golden
        self.passed = set()

    def __call__(self, res: dict, path: str) -> list:
        if "exception" in res:
            return [res["exception"].strip().splitlines()[-1]]
        if not os.path.exists(path):
            return [f"exit code {res['rc']} and no output"]
        digest = res["sha256"] = sha256(path)
        problems = []
        if self.golden is not None and digest != self.golden:
            problems.append(f"SHA-256 {digest} differs from the golden {self.golden}")
        if digest not in self.passed:
            found = self.workload.check(res["rc"], res["stderr"], path)
            if not found:
                self.passed.add(digest)
            problems += found
        elif res["rc"] != 0:
            problems.append(f"exit code {res['rc']}, expected 0")
        return problems


def negative_control(seed: int, tag: str) -> list:
    """Run the tampered-b verify; return the reasons it did not fail as it must."""
    from workloads import negative_control as control_argv

    b_path = os.path.join(OUT, f"{tag}-control-b.csv")
    out = os.path.join(OUT, f"{tag}-control.csv")
    try:
        _, res = spawn({"argv": control_argv(seed, b_path, out)})
    finally:
        for p in (b_path, out):
            if os.path.exists(p):
                os.remove(p)
    problems = []
    if res["rc"] != 1:
        problems.append(f"control exited {res['rc']}, expected 1")
    if not any(line.startswith("FAIL:") for line in res["stderr"].splitlines()):
        problems.append("control printed no FAIL: line")
    return problems


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "machine": platform.machine(), "cpu_model": None,
            "mem_total_kb": None}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name")), None)
        with open("/proc/meminfo") as fh:
            info["mem_total_kb"] = next((int(line.split()[1]) for line in fh
                                         if line.startswith("MemTotal:")), None)
    except OSError:
        pass
    return info


def git_revision():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def run(args) -> dict:
    import layers
    import numpy
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    with open(os.path.join(BENCH, "golden.json")) as fh:
        golden = json.load(fh)[args.workload] if args.seed == 0 else None
    check = Checker(workload, golden)
    out = os.path.join(OUT, f"{tag}.csv")

    spawn({"setup_only": True})                        # warm the bytecode cache
    setup = [spawn({"setup_only": True})[0] for _ in range(SETUP_SAMPLES)]
    control = negative_control(args.seed, tag)

    plain, traced, failures = [], [], []
    if control:
        failures.append({"invocation": "control", "problems": control})
    start = time.perf_counter()
    longest = 0.0
    rounds = 0
    try:
        while rounds < (1 if args.trace else MIN_INVOCATIONS) or (
                time.perf_counter() - start + longest <= args.seconds):
            t = time.perf_counter()
            modes = (False, True) if args.trace else (False,)
            for traced_mode in modes:
                spans = (os.path.join(OUT, "spans", f"{tag}-{rounds}.json")
                         if traced_mode else None)
                _, res = spawn({"argv": workload.argv(out), "spans": spans})
                problems = check(res, out)
                if problems:
                    failures.append({"invocation": len(plain) + len(traced),
                                     "traced": traced_mode, "problems": problems})
                if os.path.exists(out):
                    os.remove(out)
                res.pop("stderr")
                if traced_mode:
                    with open(spans) as fh:
                        dump = json.load(fh)
                    res["layers"] = layers.layer_metrics(dump)
                    res["self_s"] = layers.self_times(dump["spans"])
                    traced.append(res)
                else:
                    plain.append(res)
            longest = max(longest, time.perf_counter() - t)
            rounds += 1
    finally:
        if os.path.exists(out):
            os.remove(out)

    attempted = len(plain) + len(traced) + 1            # + the negative control
    failed = len(failures)
    walls = [r["wall_s"] for r in plain]
    if args.trace:
        metrics = {}
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(r["layers"][key] for r in traced)
        for key in traced[0]["probes"]:
            metrics[key] = statistics.median(r["probes"][key] for r in traced)
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(walls))
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "ok_frac": (attempted - failed) / attempted,
        }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": workload.inputs, "argv": workload.argv("OUT.csv"),
        "machine": machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_revision": git_revision(),
        "src.lines": src_lines(), "setup_samples_s": setup,
        "invocations": plain, "traced_invocations": traced,
        "golden_sha256": golden, "failures": failures,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "metrics": metrics,
    }
    os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
    with open(os.path.join(OUT, "records", f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "errlab", "cli.py")):
        print(f"bench: no errlab sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(names)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    for f in record["failures"]:
        print(f"FAILED {f['invocation']}: {'; '.join(f['problems'])}")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
               for m in listed}
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
