#!/usr/bin/env python3
"""The repository benchmark: builds the release binaries under test
(`dpcp-serve`, `campaign`) and the driver in `perfbench/driver`, then runs
one workload and relays the driver's output. The last line of standard
output is the JSON result.

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds go to `$CARGO_TARGET_DIR`
(default `.bench_build`); scratch files go to `.bench_work`.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DRIVER = ROOT / "perfbench" / "driver" / "Cargo.toml"
WORKLOADS = ("serve-cold", "serve-hot", "campaign")


def source_digest():
    """SHA-256 over the sources that make up the programs under test."""
    digest = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "crates", ROOT / "vendor"]
    files = []
    for root in roots:
        files.extend([root] if root.is_file() else sorted(root.rglob("*")))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        rev = out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "no-git"
    return f"{rev}+src.{source_digest()}"


def build(cmd, env):
    # Cargo's progress goes to stderr so the last stdout line stays the result.
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if proc.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--clients", type=int, help="closed-loop clients (default: nproc)")
    args = parser.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "serve").is_dir():
        sys.exit(f"perfbench: {ROOT} holds no DPCP-p workspace to build")

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build(["cargo", "build", "--release", "--offline", "--locked",
           "-p", "dpcp_serve", "--bin", "dpcp-serve",
           "-p", "dpcp_experiments", "--bin", "campaign"], env)
    build(["cargo", "build", "--release", "--offline", "--locked",
           "--manifest-path", str(DRIVER)], env)

    bin_dir = target / "release"
    cmd = [
        str(bin_dir / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--bin-dir", str(bin_dir),
        "--work-dir", str(ROOT / ".bench_work"),
        "--rev", revision(),
    ]
    if args.clients is not None:
        cmd += ["--clients", str(args.clients)]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
