#!/usr/bin/env python3
"""Build the diagnosis benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <tpcc|wide|stream> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The benchmark is built with `cargo build --release --offline` into
$CARGO_TARGET_DIR (default `.bench_build`). Its last line of standard
output is the result JSON; build output goes to standard error. The run
records the host and build it measured (CPU count, rustc, commit or source
digest, the resolved features of the library crates) in the environment
variable PERFBENCH_PROVENANCE, which the benchmark copies into its result
file. A build that links the core crate's `chaos` feature is refused: the
benchmark measures the program as shipped.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
LIBRARY_CRATES = ("dbsherlock-core", "dbsherlock-sherlockd", "dbsherlock-telemetry", "dbsherlock-simulator")


def output_of(cmd, env=None):
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def resolved_features(env):
    text = output_of(["cargo", "metadata", "--offline", "--format-version", "1", "--manifest-path", MANIFEST], env)
    if text is None:
        return None
    meta = json.loads(text)
    names = {p["id"]: p["name"] for p in meta["packages"]}
    return {names[n["id"]]: sorted(n["features"]) for n in meta["resolve"]["nodes"] if names[n["id"]] in LIBRARY_CRATES}


def source_digest():
    """SHA-256 over the sources the benchmark builds, for hosts without git."""
    digest = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "out"))
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target_dir = os.path.abspath(env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    features = resolved_features(env)
    if features is None or "dbsherlock-core" not in features:
        print("perfbench: cannot resolve the library crates' features", file=sys.stderr)
        return 1
    if "chaos" in features["dbsherlock-core"]:
        print("perfbench: refusing to measure a build with the chaos feature", file=sys.stderr)
        return 1
    env["PERFBENCH_PROVENANCE"] = json.dumps(
        {
            "nproc": os.cpu_count(),
            "rustc": output_of(["rustc", "-V"], env),
            "commit": output_of(["git", "rev-parse", "HEAD"], env),
            "source_sha256": source_digest(),
            "features": features,
            "profile": "release",
        }
    )
    binary = os.path.join(target_dir, "release", "dbsherlock-perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
