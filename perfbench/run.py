#!/usr/bin/env python3
"""Build and run the admission-service benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selfcheck

`--spans FILE` (single-workload form, with `--trace 1`) also writes the
traced run's spans to FILE.

Run from the repository root. The first form builds `migctl` and the
benchmark (release, offline; into $CARGO_TARGET_DIR, default
`.bench_build`) and runs one workload; its last stdout line is the JSON
result. `--all` runs every workload untraced and traced and prints, per
workload, a row of the bounded end-to-end metrics and a row of the
client-visible `e2e.*` ones, each by name and unit (`--trace N` picks one
run and prints all its metrics); it exits non-zero if any run fails its
oracle. `--selfcheck` runs every workload at toy size and checks that
the measurement reconciles.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["steady", "cohort", "recover", "replicated"]


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in [
        (os.path.join(ROOT, "Cargo.toml"), ["--bin", "migctl"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ]:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
        subprocess.run(cmd + extra, env=env, check=True, stdout=sys.stderr)
    return os.path.join(target, "release")


def run_one(bin_dir, workload, seed, seconds, trace, extra=()):
    cmd = [
        os.path.join(bin_dir, "perfbench"),
        "--migctl", os.path.join(bin_dir, "migctl"),
        "--work", os.path.join(ROOT, ".perfbench_work"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    return subprocess.run(cmd + list(extra), stdout=subprocess.PIPE, text=True, timeout=175)


def value(args, name, default):
    if name in args:
        return args[args.index(name) + 1]
    return default


def main():
    args = sys.argv[1:]
    try:
        bin_dir = build()
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if "--all" in args or "--selfcheck" in args:
        selfcheck = "--selfcheck" in args
        seed = int(value(args, "--seed", "1"))
        seconds = value(args, "--seconds", "2" if selfcheck else "10")
        # Both runs by default: the untraced one carries the bounded
        # end-to-end metrics, the traced one the client-visible latencies
        # and goodput (`e2e.*`) and, with --trace 1 given, every layer.
        # The self-check reconciles both (oracle, counters, recovered
        # banners; spans).
        explicit = "--trace" in args
        traces = [value(args, "--trace", "0")] if explicit else ["0", "1"]
        ok = True
        for trace in traces:
            for w in WORKLOADS:
                extra = ["--selfcheck"] if selfcheck else []
                p = run_one(bin_dir, w, seed, seconds, trace, extra)
                lines = p.stdout.strip().splitlines()
                if p.returncode != 0 or not lines:
                    print(f"{w:<11} trace={trace} FAILED (exit {p.returncode})")
                    ok = False
                    continue
                res = json.loads(lines[-1])
                shown = {k: v for k, v in res["metrics"].items()
                         if trace == "0" or explicit or k.startswith("e2e.")}
                cells = [f"{k}={v['value']:.4g} {v['unit']}" for k, v in shown.items()]
                print(f"{w:<11} trace={trace} correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}  " + "  ".join(cells))
                ok = ok and res["correct"]
        return 0 if ok else 1
    extra = ["--spans", value(args, "--spans", "")] if "--spans" in args else []
    p = run_one(bin_dir, value(args, "--workload", ""), value(args, "--seed", "1"),
                value(args, "--seconds", "10"), value(args, "--trace", "0"), extra)
    sys.stdout.write(p.stdout)
    return p.returncode


if __name__ == "__main__":
    sys.exit(main())
