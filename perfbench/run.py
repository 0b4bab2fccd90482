#!/usr/bin/env python3
"""Build and run the mtbalance simulator benchmark.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload meso-noise|cycle-paper|cycle-cluster \\
        [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

Compare two saved results:

    python3 perfbench/run.py --compare BASE.json NEW.json

The run builds the `perfbench` Cargo package in release mode (a package
of its own that uses the repository's crates by path; the build goes to
$CARGO_TARGET_DIR, default `.bench_build`), runs the workload, and passes
its report through. The first stdout line is `meta {...}`: host and build
metadata. The last stdout line is the result object
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 1` the
spans are written to `<target dir>/perfbench-spans/`. `--out` saves the
metadata, report lines and result object as one JSON file, which
`--compare` reads; results whose host or build metadata differ are
refused.

Exit status: 0 when every case passed its checks, 1 when a check failed
or the benchmark could not be built or run, 2 on bad arguments or a
refused comparison.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The contract allows 180 s per run; stop the measurement well before.
RUN_TIMEOUT_S = 170
# Metadata two results must share to be compared. The source revision is
# shown but may differ: comparing two revisions is the point.
COMPARABLE = ("cpus", "cpu_model", "rustc", "profile")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the simulator and benchmark sources, so results from a
    checkout without git history still name the code they measured."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def metadata():
    return {
        "cpus": os.cpu_count(),
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "profile": "release",
        "git_rev": command_output(["git", "rev-parse", "HEAD"]) or "none",
        "source_digest": source_digest(),
    }


def build(target_dir):
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail(f"simulator sources not found under {ROOT}/crates; run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
    try:
        built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if built.returncode != 0:
        fail("build failed")
    return os.path.join(target_dir, "release", "perfbench")


def run(args):
    target_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    binary = build(target_dir)
    meta = metadata()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(target_dir, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"benchmark exited with status {done.returncode} and no result")
    print("meta " + json.dumps(meta, sort_keys=True))
    print("\n".join(lines), flush=True)
    if args.out:
        saved = {"meta": meta, "workload": args.workload, "seed": args.seed,
                 "trace": args.trace, "report": lines[:-1], "result": json.loads(lines[-1])}
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(saved, f, indent=1, sort_keys=True)
    sys.exit(0 if done.returncode == 0 else 1)


def compare(base_path, new_path):
    with open(base_path, encoding="utf-8") as f:
        base = json.load(f)
    with open(new_path, encoding="utf-8") as f:
        new = json.load(f)
    differ = [k for k in COMPARABLE if base["meta"].get(k) != new["meta"].get(k)]
    if differ:
        for k in differ:
            print(f"{k}: {base['meta'].get(k)!r} != {new['meta'].get(k)!r}", file=sys.stderr)
        fail("refusing to compare results whose host or build metadata differ", 2)
    if (base["workload"], base["trace"]) != (new["workload"], new["trace"]):
        fail("refusing to compare different workloads or trace modes", 2)
    print(f"workload {base['workload']}  {base['meta']['git_rev'][:12]} -> "
          f"{new['meta']['git_rev'][:12]}  ({base['meta']['cpus']} CPUs)")
    bm, nm = base["result"]["metrics"], new["result"]["metrics"]
    for name, b in bm.items():
        n = nm.get(name)
        if n is None:
            print(f"{name:36} {b['value']:>14.6g} {'(missing)':>14}")
            continue
        change = (n["value"] - b["value"]) / b["value"] * 100 if b["value"] else 0.0
        print(f"{name:36} {b['value']:>14.6g} {n['value']:>14.6g} {change:+8.2f}%  {b['unit']}")
    digest = lambda r: next((l for l in r["report"] if l.startswith("record_digest")), None)
    if base["seed"] == new["seed"] and digest(base) != digest(new):
        print("record digests differ: the simulated outputs changed")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.workload:
        run(args)
    else:
        p.error("--workload or --compare is required")


if __name__ == "__main__":
    main()
