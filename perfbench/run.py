#!/usr/bin/env python3
"""Build and run the emod benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>] [--trace <0|1>]

Run from the repository root. Builds the `emod-perfbench` binary and the
`emod-serve` binary it drives (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the workload with every `EMOD_*`
variable removed from the environment, so the shipped defaults are what is
measured. Build output goes to standard error; the last line of standard
output is the run's JSON result. `--workload all` runs the four workloads
in turn and prints each result. The exit code is non-zero when the build
fails, the run fails, or an output check fails.
"""

import os
import subprocess
import sys

WORKLOADS = ["campaign_cycles", "campaign_codesize", "serve_predict", "serve_mix"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("EMOD_")}
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    return env


def build(env):
    base = ["cargo", "build", "--offline", "--release", "--manifest-path", MANIFEST]
    for extra in (["-p", "emod-serve", "--bin", "emod-serve"], []):
        done = subprocess.run(base + extra, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(done.returncode or 1)
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release")


def run_one(bin_dir, env, args):
    cmd = [
        os.path.join(bin_dir, "emod-perfbench"),
        *args,
        "--serve-bin",
        os.path.join(bin_dir, "emod-serve"),
        "--root",
        ROOT,
        "--work",
        os.path.join(ROOT, ".bench_work"),
    ]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


def main(argv):
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("error: run from a full checkout (crates/ is missing)", file=sys.stderr)
        return 2
    env = clean_env()
    bin_dir = build(env)
    if "--workload" in argv and argv[argv.index("--workload") + 1 :][:1] == ["all"]:
        i = argv.index("--workload")
        rest = argv[:i] + argv[i + 2 :]
        status = 0
        for w in WORKLOADS:
            status = run_one(bin_dir, env, ["--workload", w, *rest]) or status
        return status
    return run_one(bin_dir, env, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
