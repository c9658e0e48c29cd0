"""The repository benchmark: build, run one workload, check it, print metrics.

    python3 perfbench/run.py --workload campaign|screen --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark runner (perfbench/runner, linked against the repository's own
libraries and compiled with the repository's own flags) under .bench_build/.

--trace 0 measures for --seconds with no recorder of the benchmark installed
and reports the end-to-end metrics of BENCHMARK.json. --trace 1 makes the
traced run: the runner records the program's spans and its own, and
perfbench/analyze.py turns the trace into the per-layer metrics.

Standard output ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
preceded by one JSON line of detail (host fingerprint, sample counts, the
failed checks if any). The exit code is 0 only when every output check held.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import analyze  # noqa: E402

BUILD_DIR = os.path.join(".bench_build", "cmake")
RUNNER = os.path.join(BUILD_DIR, "perfbench", "perfbench_runner")
RUNS_DIR = os.path.join(".bench_build", "runs")
TMP_DIR = os.path.join(".bench_build", "tmp")  # compiler and runner temp files
WORKLOADS = ("campaign", "screen")
# The serve layer is traced inside the screen workload's traced run, by the
# runner's serve mode: serve latency is not steady enough on a shared host to
# gate as a workload of its own (see README.md), but its per-layer metrics
# are still recorded.
TRACED_WITH = {"screen": "serve"}
RUNNER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
ISA_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512vl",
             "avx512_vnni", "avx512_bf16", "amx_tile", "neon", "asimd", "sve")


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def load_references():
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def child_env():
    """Keep temporary files of the build and the runner inside the checkout."""
    os.makedirs(TMP_DIR, exist_ok=True)
    return dict(os.environ, TMPDIR=os.path.abspath(TMP_DIR))


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise RuntimeError("run from the repository root: CMakeLists.txt and src/ "
                           "are missing here")
    env = child_env()
    with open(os.path.join(".bench_build", "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", ".", "-B", BUILD_DIR,
                   "-DCMAKE_PROJECT_impeccable_INCLUDE="
                   + os.path.join(HERE, "build.cmake")]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, env=env,
                           timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench_runner",
                        "-j", str(nproc())],
                       check=True, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)


def host_fingerprint(raw):
    flags, model = set(), ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("flags", "Features") and not flags:
                    flags = set(value.split())
                elif key == "model name" and not model:
                    model = value.strip()
    except OSError:
        pass
    compiler = "c++"
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = os.path.basename(line.split("=", 1)[1].strip())
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu": model,
        "isa": sorted(f for f in ISA_FLAGS if f in flags),
        "compiler": f"{compiler} {raw['compiler']}",
        "build_type": raw["build_type"],
        "cxx_flags": raw["cxx_flags"],
    }


def run_workload(workload, args, out_dir):
    cmd = [RUNNER, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                          timeout=RUNNER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"runner exited with {proc.returncode} and no result")
    return json.loads(lines[-1])


def end_to_end(raw):
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "latency_p50_ms": 1e3 * statistics.median(raw["op_s"]),
        "ligands_per_s": raw["items"] / raw["busy_s"],
        "peak_rss_mb": raw["peak_rss_kib"] / 1024.0,
        "ok_frac": 1.0 - raw["failed"] / raw["attempted"],
    }


def check_fingerprint(raw, seed, errors):
    """Campaign science must match the recorded digest for this seed.

    Returns (digest, whether a reference digest was recorded for the seed).
    """
    path = raw.get("files", {}).get("fingerprint")
    if not path:
        errors.append("campaign: no science fingerprint written")
        return None, False
    with open(path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    expected = load_references()["campaign_fingerprint_sha256"].get(str(seed))
    if expected is None:
        log(f"seed {seed} has no reference science fingerprint; only the "
            "passes of this run are compared with each other")
    elif digest != expected:
        errors.append(f"campaign: science fingerprint {digest[:16]} differs "
                      f"from the reference {expected[:16]} for seed {seed}")
    return digest, expected is not None


def traced_metrics(raw):
    """Per-layer metrics of one traced runner call; prints its span table."""
    spans = analyze.load_trace(raw["files"]["trace"])
    with open(raw["files"]["metrics"]) as f:
        registry = json.load(f)
    log(f"per-layer table of the traced {raw['workload']} run:\n"
        + analyze.format_table(analyze.table(spans)))
    return analyze.layer_metrics(spans, registry, raw)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    spec = load_spec()
    build()
    out_dir = os.path.join(RUNS_DIR, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    try:
        raw = run_workload(args.workload, args, out_dir)
        errors = list(raw["errors"])
        attempted, failed = raw["attempted"], raw["failed"]
        digest, reference_checked = None, None  # campaign only
        if args.workload == "campaign":
            digest, reference_checked = check_fingerprint(raw, args.seed, errors)
        if args.trace:
            values = traced_metrics(raw)
            companion = TRACED_WITH.get(args.workload)
            if companion:
                other = run_workload(companion, args, out_dir)
                errors += other["errors"]
                attempted += other["attempted"]
                failed += other["failed"]
                values.update((k, v) for k, v in traced_metrics(other).items()
                              if k.startswith(companion + "."))
            wanted = spec["per_layer"]
        else:
            values = end_to_end(raw)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "workers": raw["workers"], "host": host_fingerprint(raw),
        "samples": {"setup": len(raw["setup_s"]), "ops": len(raw["op_s"])},
        "raw": raw["extra"], "campaign_fingerprint_sha256": digest,
        "reference_checked": reference_checked, "errors": errors,
    }
    print(json.dumps(detail, sort_keys=True))
    for e in errors:
        log("check failed:", e)
    print(json.dumps({"correct": not errors, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("error:", e)
        sys.exit(2)
