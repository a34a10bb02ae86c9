"""Benchmark of the orthoglide command-line tool, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is one of design-sweep, map-export, pose-queries, path-check (see
BENCHMARK.json for why each was chosen).  The seed fixes the generated
inputs.  One client runs the commands in a closed loop, in-process, in a
fresh worker interpreter (see worker.py); every output is then checked
against an independent oracle (see oracles.py).

--trace 0 prints the end-to-end metrics: setup_s (fresh interpreter to
ready: import the CLI and load the config, median of several probes),
items_per_s (work items of commands whose output passed, per second of
command time), op_p50_ms (median command wall time) and peak_rss_mb (peak
resident memory of the worker process that ran the commands).  Every time
is rescaled to a nominal host speed by reference samples taken around it
(see calibrate.py), and each distinct command is timed at the mean of its
repetitions in the run (see end_to_end).  error_rate, and op_p95_ms where
at least ten commands lie beyond it (only pose-queries has that many), are
printed too but are not in the JSON: the JSON holds the metrics
BENCHMARK.json gates on every workload, and error_rate is 0 when all is
well.
--trace 1 runs every command untraced and then traced, and prints the
per-layer metrics of the tracer (see tracer.py) and trace.overhead_ratio.

The benchmark and every process it starts run on one CPU (the highest
numbered one it may use), one at a time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A record of the run (versions, seed, setup
samples, SHA-256 of every command's output) is written under .bench_runs/.
"""

from __future__ import annotations

import os

# one thread for every BLAS / OpenMP pool, here and in the child processes,
# so that the numbers measure the program and not the scheduler
THREADS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREADS)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import reference, scale  # noqa: E402
from oracles import ORACLES  # noqa: E402
from workloads import GENERATORS, generate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

#: commands whose spans make up the per-layer metrics of a traced run
TRACED_COMMANDS = {"design-sweep": 4, "map-export": 3, "pose-queries": 200, "path-check": 3}
SETUP_PROBES = 11
WORKER_TIMEOUT_S = 150
PROBE = (
    "import sys, time\n"
    "from orthoglide import cli\n"
    "cli.RunConfig({'config': sys.argv[1]}).design_and_cube()\n"
    "print(time.monotonic())\n"
)


def child_env() -> dict:
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def metadata(args) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = out.stdout.strip() or sha
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "click": importlib.metadata.version("click"),
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(config: str, env: dict, probes: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until the CLI is imported
    and the workload's config is loaded, once per probe, rescaled to the
    nominal host by the reference samples before and after the probe."""
    samples = []
    ref_before = reference()
    for _ in range(probes):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", PROBE, config],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        seconds = float(out.stdout.split()[-1]) - t0
        ref_after = reference()
        samples.append(scale(seconds, ref_before, ref_after))
        ref_before = ref_after
    return samples


def check_outputs(spec: dict, records: list[dict]) -> tuple[list[bool], list[str]]:
    """Oracle verdict per execution.  The first output of each command is
    checked in full; a repeat of it must reproduce its bytes and exit code."""
    oracle = ORACLES[spec["workload"]]
    by_key = {cmd["key"]: cmd for cmd in spec["commands"]}
    first: dict[str, tuple] = {}
    verdicts, messages = [], []
    for rec in records:
        key = rec["key"]
        if rec["out"] is not None:
            errs = [rec["error"]] if rec["error"] else oracle(
                spec, by_key[key], Path(rec["out"]), rec["code"]
            )
            first[key] = (rec["sha256"], rec["code"], not errs)
        else:
            sha, code, ok = first[key]
            errs = [rec["error"]] if rec["error"] else []
            if not ok:
                errs.append("repeat of a failed command")
            if (rec["sha256"], rec["code"]) != (sha, code):
                errs.append("output differs from the first run of the same command")
        verdicts.append(not errs)
        messages += [f"command {rec['index']} ({key}): {e}" for e in errs]
    return verdicts, messages


def end_to_end(records, verdicts, result, setup) -> dict:
    """End-to-end metrics of an untraced run.

    Each execution's time is rescaled to the nominal host (see
    calibrate.py).  items_per_s is the work of every execution of the
    commands that passed their oracle, over the time of all executions;
    for op_p50_ms and op_p95_ms each distinct command is timed at the mean
    of its repetitions.  Means, not medians: the host switches between a
    fast and a slow phase several times a second, and a median lands in
    whichever phase held the larger share of the run.
    """
    scaled, items, passed = {}, {}, {}
    for rec, ok in zip(records, verdicts):
        key = rec["key"]
        scaled.setdefault(key, []).append(scale(rec["seconds"], *rec["ref_s"]))
        items[key] = rec["items"]
        passed[key] = passed.get(key, True) and ok
    work = sum(items[k] * len(ts) for k, ts in scaled.items() if passed[k])
    times = sorted(statistics.fmean(ts) for ts in scaled.values())
    p95 = statistics.quantiles(times, n=20)[18] if len(times) > 1 else times[0]
    return {
        "setup_s": statistics.median(setup),
        "items_per_s": work / sum(sum(ts) for ts in scaled.values()),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p95_ms": p95 * 1e3,
        "op_p95_beyond": sum(t > p95 for t in times),
        "commands": len(times),
        "peak_rss_mb": result["peak_rss_bytes"] / 2**20,
    }


def per_layer(records, result) -> dict:
    metrics = dict(result["layers"])
    plain = sum(r["seconds"] for r in records if not r["traced"])
    traced = sum(r["seconds"] for r in records if r["traced"])
    metrics["trace.overhead_ratio"] = traced / plain
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not (SRC / "orthoglide" / "cli.py").is_file():
        print(f"error: no orthoglide sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    outputs = run_dir / "outputs"
    outputs.mkdir(parents=True)
    spec = generate(args.workload, args.seed, run_dir / "inputs")
    env = child_env()
    first_args = spec["commands"][0]["args"]
    config = first_args[first_args.index("--config") + 1]
    # half the set-up probes before the workload and half after it, so that
    # their median spans the run rather than one moment of the machine
    setup = measure_setup(config, env, SETUP_PROBES // 2)

    traced = TRACED_COMMANDS[args.workload] if args.trace else 0
    worker = [sys.executable, str(HERE / "worker.py"), str(run_dir / "inputs" / "spec.json"),
              str(outputs), str(args.seconds), str(traced)]
    try:
        subprocess.run(worker, env=env, cwd=ROOT, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S,
                       check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"error: worker failed: {e}", file=sys.stderr)
        return 1
    setup += measure_setup(config, env, SETUP_PROBES - SETUP_PROBES // 2)
    result = json.loads((outputs / "result.json").read_text())
    with open(outputs / "records.jsonl") as f:
        records = [json.loads(line) for line in f]

    verdicts, messages = check_outputs(spec, records)
    if result["warmup"]["error"] is not None:
        messages.insert(0, f"warm-up command: {result['warmup']['error']}")
    attempted, failed = len(records), verdicts.count(False)
    for message in messages[:20]:
        print(f"oracle: {message}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(records, result)
    else:
        metrics = end_to_end(records, verdicts, result, setup)
    missing = set(result.get("missing_layers", ()))

    meta = metadata(args)
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['commands']} commands, {attempted} executions, {failed} failed")
    print(f"# run: {json.dumps(meta)}")
    print(f"error_rate = {failed / attempted:.6g} ratio")
    if not args.trace:
        n, beyond = metrics["commands"], metrics["op_p95_beyond"]
        print(f"# op_* from the mean repetition of each of {n} distinct commands")
        if beyond >= 10:
            print(f"op_p95_ms = {metrics['op_p95_ms']:.6g} ms ({beyond} commands beyond it)")
        else:
            print(f"# op_p95_ms not reported: {beyond} of {n} commands beyond it, fewer than 10")
    for layer in sorted(missing):
        print(f"{layer}: missing (no public functions found to trace)")
    out = {}
    for m in wanted:
        name = m["name"]
        if name.split(".")[0] in missing:
            continue
        out[name] = {"value": metrics[name], "unit": m["unit"]}
        print(f"{name} = {metrics[name]:.6g} {m['unit']}")

    record = {
        "meta": meta,
        "setup_s_samples": setup,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "oracle_messages": messages,
        "outputs": [
            {k: r[k] for k in ("index", "key", "traced", "seconds", "ref_s", "code", "sha256")}
            for r in records
        ],
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))
    if (outputs / "spans.csv").exists():
        (outputs / "spans.csv").rename(run_dir / "spans.csv")
    shutil.rmtree(outputs)
    shutil.rmtree(run_dir / "inputs")

    correct = failed == 0 and result["warmup"]["error"] is None
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
