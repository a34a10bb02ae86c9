"""Closed-loop executor of one workload: one client, in one process.

Usage: python3 worker.py SPEC OUT_DIR SECONDS TRACED_COMMANDS

Runs the spec's commands in order through the click entry point,
`orthoglide.cli.main.main(args, standalone_mode=False)`, each one starting
after the previous one finished, cycling through the list, until SECONDS
have passed and every command ran at least once (and at least 3 commands
ran).  Each command's output goes to
its own file in OUT_DIR; the first output of each command in the list is
kept for the oracles, later ones are reduced to their SHA-256.

Commands are bracketed by host-speed reference samples, taken by a helper
process (see calibrate.py): one before the first command and one after
every command that ends at least REF_EVERY_S after the last sample.  Each
record holds the samples before and after its command.

With TRACED_COMMANDS > 0 every command runs twice, untraced and then traced,
and the loop also runs until that many commands were traced; the per-layer
metrics cover exactly those first commands, so their counts repeat from run
to run.  One JSON line per execution goes to OUT_DIR/records.jsonl and a
summary to OUT_DIR/result.json.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from calibrate import Helper
from tracer import Tracer

MIN_COMMANDS = 3
REF_EVERY_S = 0.2


def run_cli(main, args, tracer: Tracer | None) -> tuple[int | None, str | None]:
    """Exit code of one command, or None and the error for an exception."""
    try:
        if tracer is None:
            main.main(args, standalone_mode=False)
        else:
            tracer.span("cli", "cli.main", main.main, args, standalone_mode=False)
        return 0, None
    except SystemExit as e:
        return (e.code if isinstance(e.code, int) else int(e.code is not None)), None
    except Exception as e:  # a crash is a failed command, not a failed run
        return None, f"{type(e).__name__}: {e}"


def sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def fill(args: list[str], out: Path) -> list[str]:
    return [str(out) if a == "{out}" else a for a in args]


def main(argv: list[str]) -> int:
    spec_path, out_dir, seconds, traced_commands = argv
    out_dir, seconds, traced_commands = Path(out_dir), float(seconds), int(traced_commands)
    spec = json.loads(Path(spec_path).read_text())
    commands, ext = spec["commands"], spec["ext"]

    # set-up as a CLI user pays it: import the CLI and load the config
    from orthoglide import cli

    first = commands[0]["args"]
    cli.RunConfig({"config": first[first.index("--config") + 1]}).design_and_cube()

    warm_code, warm_error = run_cli(cli.main, fill(spec["warmup"], out_dir / f"warmup{ext}"), None)
    tracer = None
    if traced_commands:
        tracer = Tracer()
        tracer.discover()

    helper = Helper()
    try:
        i, wall, span_stop = run_loop(
            cli, spec, out_dir, seconds, traced_commands, tracer, helper
        )
    finally:
        helper.close()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    result = {
        "commands": i,
        "wall_s": wall,
        "peak_rss_bytes": peak,
        "warmup": {"code": warm_code, "error": warm_error},
    }
    if tracer:
        result["layers"] = tracer.summary(span_stop)
        result["missing_layers"] = tracer.missing()
        tracer.write_spans(out_dir / "spans.csv")
    (out_dir / "result.json").write_text(json.dumps(result, indent=1))
    return 0


def run_loop(cli, spec, out_dir, seconds, traced_commands, tracer, helper):
    """The closed loop; returns (commands, wall seconds, number of spans of
    the first `traced_commands` commands)."""
    commands, ext = spec["commands"], spec["ext"]
    passes = (False, True) if tracer else (False,)
    span_stop = None
    n_exec = 0
    ref_last = helper.reference()
    ref_time = time.perf_counter()
    pending = []  # records waiting for the next reference sample
    start = time.perf_counter()
    with open(out_dir / "records.jsonl", "w") as log:
        i = 0
        while True:
            cmd = commands[i % len(commands)]
            for traced in passes:
                out = out_dir / f"{n_exec:06d}{ext}"
                args = fill(cmd["args"], out)
                if traced:
                    tracer.install()
                t0 = time.perf_counter()
                code, error = run_cli(cli.main, args, tracer if traced else None)
                dt = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
                digest = sha256(out)
                keep = i < len(commands) and not traced
                if not keep and out.exists():
                    out.unlink()
                record = {
                    "index": i,
                    "key": cmd["key"],
                    "items": cmd["items"],
                    "traced": traced,
                    "seconds": dt,
                    "code": code,
                    "error": error,
                    "sha256": digest,
                    "out": str(out) if keep else None,
                }
                pending.append(record)
                n_exec += 1
            if time.perf_counter() - ref_time >= REF_EVERY_S:
                ref_next = helper.reference()
                ref_time = time.perf_counter()
                for rec in pending:
                    rec["ref_s"] = [ref_last, ref_next]
                    log.write(json.dumps(rec) + "\n")
                pending, ref_last = [], ref_next
            i += 1
            if tracer and i == traced_commands:
                span_stop = len(tracer.spans)
            done = max(MIN_COMMANDS, len(commands), traced_commands)
            if time.perf_counter() - start >= seconds and i >= done:
                break
        wall = time.perf_counter() - start
        ref_next = helper.reference()
        for rec in pending:
            rec["ref_s"] = [ref_last, ref_next]
            log.write(json.dumps(rec) + "\n")
    return i, wall, span_stop


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
