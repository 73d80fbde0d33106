#!/usr/bin/env python3
"""Repository benchmark: closed-loop solves of the D&C and MRRR eigensolvers.

Usage (from the repository root):

    python3 perfbench/run.py --workload dc_gemm --seed 42 --seconds 20 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/ on first use,
generates the workload's matrix from the seed, runs the workload and prints
every metric by name with its unit. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ledger of a separate traced run.

BENCHMARK.json names the workloads and metrics; perfbench/layers.json gives
each workload's input and, for each per-layer metric, its module, its source
and the end-to-end metric and workload it should move. Every run is also
recorded, with its build and machine stamp, in .bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = json.loads((HERE / "layers.json").read_text())["workloads"]

# DNC_* knobs that change what the library does (src/common/env.cpp lists
# them all); a run under any of them does not measure the defaults.
FORBIDDEN_KNOBS = [
    "DNC_SCHED", "DNC_PREC", "DNC_TUNE_TABLE", "DNC_SIMD", "DNC_TOPOLOGY",
    "DNC_METRICS", "DNC_HISTORY", "DNC_TRACE", "DNC_REPORT", "DNC_HWC",
    "DNC_HTTP", "DNC_PROFILE_HZ", "DNC_FLIGHT",
]
SETUP_PROBES = 5      # fresh processes measuring the first solve
CHILD_TIMEOUT = 170   # seconds after the build; a run must end within 180
# matgen's prescribed-spectrum construction (CGS2 Lanczos) is O(n^3) unless
# its cluster shortcut applies: a type-2 matrix at n = 6000 takes ~0.1 s, but
# for about one seed in fifteen the first Lanczos block does not break down
# where the cluster model expects and generation takes minutes. Such a
# generation is abandoned after GEN_LIMIT seconds and the next matgen seed
# of the fixed sequence seed, seed + 2**32, ... is used, so a benchmark seed
# always maps to the same matrix. Type 4 at n = 3000 always takes ~21 s.
GEN_LIMIT = 60
GEN_ATTEMPTS = 3


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures and builds perfbench/ (a no-op when up to date)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir() / "cmake"
    cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not (out / "CMakeCache.txt").exists():
        cmd += ["-G", "Ninja"]
    for step in (cmd, ["cmake", "--build", str(out), "-j", "4"]):
        r = subprocess.run(step, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stderr)
            fail("build failed")
    return out / "dnc_perfbench"


def run_child(args, deadline):
    """Runs the workload binary and returns its last stdout line as JSON."""
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time")
    try:
        r = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{Path(args[0]).name} {args[1]} exited with {r.returncode}")
    return json.loads(lines[-1])


def generate(exe, common, workload, n, seed, deadline):
    """Returns (input file, matgen seed) for the workload, generating the
    matrix once per (workload, n, seed) into .bench_build/inputs."""
    def attempt_input(attempt):
        path = build_dir() / "inputs" / f"{workload}-n{n}-s{seed}-a{attempt}.bin"
        return path, (seed + attempt * 2**32) % 2**64

    for attempt in range(GEN_ATTEMPTS):
        inp, mseed = attempt_input(attempt)
        if inp.exists():
            return inp, mseed
    for attempt in range(GEN_ATTEMPTS):
        inp, mseed = attempt_input(attempt)
        tmp = inp.with_suffix(f".tmp{os.getpid()}")
        try:
            r = subprocess.run([str(exe), "gen", *common, "--seed", str(mseed), "--input", str(tmp)],
                               stdout=subprocess.DEVNULL,
                               timeout=max(0.0, min(GEN_LIMIT, deadline - time.monotonic())))
        except subprocess.TimeoutExpired:
            tmp.unlink(missing_ok=True)
            continue
        if r.returncode != 0:
            fail(f"generating the input exited with {r.returncode}")
        tmp.replace(inp)
        return inp, mseed
    fail(f"no matgen seed in {GEN_ATTEMPTS} generated the input within {GEN_LIMIT} s")


def source_digest():
    """sha256 over src/ and perfbench/: identifies the measured code even
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for p in sorted((ROOT / base).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=0, help="matrix size override (self-test)")
    ap.add_argument("--perturb", action="store_true",
                    help="corrupt one eigenvalue per solve before the check (self-test)")
    a = ap.parse_args()

    bad = [k for k in FORBIDDEN_KNOBS if os.environ.get(k)]
    if bad:
        fail("refusing to run: " + ", ".join(bad) + " set; these change the program", 3)

    exe = build()  # the first run of a checkout may take longer: it compiles
    deadline = time.monotonic() + CHILD_TIMEOUT
    w = WORKLOADS[a.workload]
    n = a.n or w["n"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed = a.seed % 2**64
    bdir = build_dir()
    for d in ("inputs", "spans", "results"):
        (bdir / d).mkdir(parents=True, exist_ok=True)

    common = ["--workload", a.workload, "--driver", w["driver"],
              "--type", str(w["matrix_type"]), "--n", str(n)]
    inp, matgen_seed = generate(exe, common, a.workload, n, seed, deadline)
    common += ["--input", str(inp)] + (["--perturb"] if a.perturb else [])

    attempted = failed = 0
    if a.trace == 0:
        probes = [run_child([str(exe), "setup", *common], deadline) for _ in range(SETUP_PROBES)]
        attempted += sum(p["attempted"] for p in probes)
        failed += sum(p["failed"] for p in probes)
    spans = bdir / "spans" / f"{a.workload}-n{n}-s{seed}.json"
    res = run_child([str(exe), "run", *common, "--seed", str(seed), "--seconds", str(a.seconds),
                     "--trace", str(a.trace)] + (["--spans", str(spans)] if a.trace else []),
                    deadline)
    attempted += res["attempted"]
    failed += res["failed"]
    metrics = dict(res["metrics"])
    if a.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(p["setup_s"] for p in probes),
                              "unit": "s"}
        metrics["rss_peak_mb"] = {"value": statistics.median(p["rss_peak_mb"] for p in probes),
                                  "unit": "MiB"}
        extra = {k: res[k] for k in ("solves_4t", "solves_1t", "tail_pct", "tail_beyond",
                                     "ortho_first", "ortho_last")}
    else:
        extra = {"module_time": res["module_time"], "spans": str(spans.relative_to(ROOT))}

    expected = bench["per_layer" if a.trace else "end_to_end"]
    wrong = [m["name"] for m in expected
             if metrics.get(m["name"], {}).get("unit") != m["unit"]]
    if wrong:
        fail("workload did not report " + ", ".join(wrong) + " with the declared unit")
    metrics = {m["name"]: metrics[m["name"]] for m in expected}

    stamp = dict(res["stamp"], matgen_seed=matgen_seed, source_digest=source_digest(),
                 trace=a.trace, seconds=a.seconds, probes=SETUP_PROBES if a.trace == 0 else 0)
    record = {"stamp": stamp, "attempted": attempted, "failed": failed,
              "metrics": metrics, "detail": extra}
    out = bdir / "results" / f"{a.workload}-n{n}-s{seed}-trace{a.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    shown = ("matgen_seed", "git_commit", "source_digest", "build_type", "simd", "sched",
             "nproc", "l3_bytes")
    print(f"# {a.workload} seed={seed} n={n} " + " ".join(f"{k}={stamp[k]}" for k in shown))
    for name, m in metrics.items():
        note = ""
        if name == "solve_tail_s":
            note = (f"  (p{extra['tail_pct']:g} of {extra['solves_4t']:g} solves, "
                    f"{extra['tail_beyond']:g} beyond)")
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}{note}")
    if a.trace:
        print(f"{'module':10s} {'calls':>6s} {'total_s':>10s} {'self_s':>10s}")
        for mod, t in extra["module_time"].items():
            print(f"{mod:10s} {t['calls']:6g} {t['total_s']:10.4f} {t['self_s']:10.4f}")
    print(f"ops={attempted} ops_failed={failed} record={out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
