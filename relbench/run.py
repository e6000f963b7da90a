#!/usr/bin/env python3
"""Release benchmark: builds `relbench` against this checkout and runs one workload.

    python3 relbench/run.py --workload <release_pmw|release_hier|serve_mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  It builds the benchmark package (offline,
into $CARGO_TARGET_DIR or relbench/target), clears every DPSYN_* environment
variable because each one silently changes the program under test, prints one
`env:` line recording the environment, then runs the workload.  The last line
of standard output is the JSON result.  The exit code is non-zero when the
build fails, the workload fails, or an output check fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("release_pmw", "release_hier", "serve_mixed")
# Variables the engine reads at run time, recorded by name; any other
# DPSYN_* variable is cleared and recorded too.
RECORDED = ("DPSYN_THREADS", "DPSYN_AGG_FORCE", "DPSYN_REPLAN_RATIO")
# A workload seed kept out of every measurement made while tuning the
# benchmark: a claimed gain must also hold on it.
HELD_OUT_SEED = 424242


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts without git."""
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("src", "crates", "vendor", "relbench/src"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file() and not {"target", "out"} & set(p.relative_to(ROOT).parts))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    env = dict(os.environ)
    cleared = {k: env.pop(k) for k in sorted(env) if k.startswith("DPSYN_")}

    target = pathlib.Path(env.get("CARGO_TARGET_DIR", HERE / "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env,
    )
    if build.returncode != 0:
        print("relbench: build failed", file=sys.stderr)
        return 1
    binary = (target if target.is_absolute() else pathlib.Path.cwd() / target) / "release" / "relbench"
    out = HERE / "out"
    out.mkdir(exist_ok=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "available_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
        "source_digest": source_digest(),
        "rustc": command_output(["rustc", "--version"]),
        "machine": platform.machine(),
        "env_cleared": {k: cleared.get(k) for k in RECORDED} | {
            k: v for k, v in cleared.items() if k not in RECORDED
        },
    }
    print("env: " + json.dumps(record, sort_keys=True), flush=True)
    run = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace, "--out", str(out)],
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
