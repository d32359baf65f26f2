#!/usr/bin/env python3
"""Crowd benchmark: fixed-density workloads for the sharded crowd engine.

Run from the repository root:

    python3 perfbench/run.py --workload dense200 --seed 1 --seconds 30 --trace 0

It builds `perfbench/` (a Cargo package of its own that links the
repository's crates), then runs `hbr-perfbench` child processes, one per
measured step, so peak memory is read per run:

- `--trace 0`: `run` children back to back until `--seconds` have
  passed, each followed by a `setup` child that times set-up a few
  times, so set-up is sampled across the whole window. Prints every
  end-to-end metric as median, quartiles and sample count, checks every
  run, and ends with one JSON line of the end-to-end metrics.
- `--trace 1`: one `trace` child: an untraced run, the traced stepper,
  and a counting pass with telemetry on. Prints every per-layer metric with
  the end-to-end metric and workloads it should move, and ends with one
  JSON line of the per-layer metrics.

The last line of standard output is always the result object
(`correct`, `attempted`, `failed`, `metrics`); nothing is printed after
it. Exit status is 0 when a result was printed, else non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary and returns its path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(ROOT, target, "release", "hbr-perfbench")
    if not os.path.isfile(binary):
        fail(f"no binary at {binary}")
    return binary


def child(binary, args):
    """Runs one child; returns (parsed last line or None, peak RSS in MB, wall s)."""
    start = time.monotonic()
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    wall = time.monotonic() - start
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {args[0]} exited {proc.returncode}", file=sys.stderr)
        return None, 0.0, wall
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0, wall


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


FIDELITY = ["l3_per_phone_hour", "rrc_per_phone_hour", "uah_per_delivered_hb", "delivery_ratio", "false_dead_s"]


def end_to_end(binary, catalog, workload, seed, seconds):
    work = os.path.join(HERE, "work", workload["name"])
    base = ["--workload", workload["name"], "--seed", str(seed), "--work", work]
    samples = {name: [] for name in ["sim_rate", "setup_s", "peak_rss_mb"] + FIDELITY}
    attempted = failed = 0
    first = None
    laps = []
    start = time.monotonic()
    while True:
        lap_start = time.monotonic()
        rep, rss, _ = child(binary, ["run"] + base)
        attempted += 1
        checks = {"child_ok": rep is not None}
        if rep is not None:
            checks.update(rep["checks"])
            key = (rep["digest"], tuple(rep[m] for m in FIDELITY))
            first = first or key
            checks["digest_and_fidelity_repeat"] = key == first
            samples["sim_rate"].append(rep["sim_rate"])
            samples["peak_rss_mb"].append(rss)
            for m in FIDELITY:
                samples[m].append(rep[m])
        bad = sorted(name for name, ok in checks.items() if not ok)
        if bad:
            failed += 1
            print(f"perfbench: run {attempted} failed {', '.join(bad)}", file=sys.stderr)
        if rep is None:
            break  # a crashed run would crash again at this seed
        setup, _, _ = child(binary, ["setup"] + base)
        if setup is not None:
            samples["setup_s"] += setup["setup_s"]
        now = time.monotonic()
        laps.append(now - lap_start)
        # Start another run only if it would mostly fit in the window.
        if now - start + statistics.median(laps) / 2 >= seconds:
            break

    samples["failed_frac"] = [failed / attempted]
    if not samples["sim_rate"] or not samples["setup_s"]:
        fail(f"no run succeeded ({failed} of {attempted} failed)")
    print(f"workload {workload['name']}: seed {seed}, {attempted} run(s), {failed} failed")
    print(f"{'metric':<22} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}  unit")
    metrics = {}
    for m in catalog["end_to_end"]:
        values = samples[m["name"]]
        median = statistics.median(values)
        q1, q3 = quartiles(values)
        print(f"{m['name']:<22} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} {len(values):>3}  {m['unit']}")
        if m["bounded"]:
            metrics[m["name"]] = {"value": median, "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer(binary, catalog, workload, seed):
    work = os.path.join(HERE, "work", workload["name"])
    base = ["--workload", workload["name"], "--seed", str(seed), "--work", work]
    out, rss, wall = child(binary, ["trace"] + base)
    if out is None:
        fail("trace child failed")
    bad = sorted(name for name, ok in out["checks"].items() if not ok)
    for name in bad:
        print(f"perfbench: trace check failed: {name}", file=sys.stderr)
    layers = out["layers"]
    declared = [m["name"] for m in catalog["per_layer"]]
    if sorted(layers) != sorted(declared):
        fail("trace child reported another metric set than the catalogue")
    print(f"workload {workload['name']}: seed {seed}, traced in {wall:.1f} s, peak {rss:.0f} MB")
    print(f"{'metric':<30} {'value':>16}  {'unit':<10} moves")
    metrics = {}
    for m in catalog["per_layer"]:
        value = layers[m["name"]]
        moves = "; ".join(f"{target} on {', '.join(ws)}" for target, ws in m["moves"])
        print(f"{m['name']:<30} {value:>16.6g}  {m['unit']:<10} {moves}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(f"{'span (first traced pass)':<30} {'calls':>8} {'total s':>12} {'self s':>12}")
    for name, (count, total, own) in sorted(out["spans"].items(), key=lambda kv: -kv[1][2]):
        print(f"{name:<30} {count:>8} {total:>12.6f} {own:>12.6f}")
    for note in out["notes"]:
        print(f"note: {note}")
    print(f"spans: {os.path.relpath(os.path.join(work, 'trace-spans.jsonl'), ROOT)}")
    return {"correct": not bad, "attempted": 1, "failed": 1 if bad else 0, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    catalog, _, _ = child(binary, ["catalog"])
    if catalog is None:
        fail("catalog child failed")
    workload = next((w for w in catalog["workloads"] if w["name"] == args.workload), None)
    if workload is None:
        fail(f"unknown workload {args.workload}")
    print(
        f"{workload['name']}: {workload['phones']} phones at {workload['density_per_ha']:g}/ha "
        f"({workload['side_m']:.1f} m side, {workload['grid']}x{workload['grid']} cells), "
        f"{workload['hours']} h, {workload['shards']} shard(s)"
    )
    if args.trace:
        result = per_layer(binary, catalog, workload, args.seed)
    else:
        result = end_to_end(binary, catalog, workload, args.seed, args.seconds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
