"""hermhull benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: each command is one fresh interpreter running the
``hermhull`` CLI entry point (``perfbench/child.py``), started only after
the previous one finished, until ``--seconds`` have passed.  Every command
goes through the correctness gate (``perfbench/gate.py``); a command that
fails it counts all its reports as failed and contributes no timing.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced commands alternate and it carries
the per-layer metrics.  The line before it is a JSON detail record: every
sample, the stdout digest, the verdict counts and the host-drift probe.
The workload grids are fixed user inputs, so ``--seed`` is recorded but
varies nothing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMA = ROOT / "src" / "hermhull" / "report_schema.json"
OUT = HERE / "out"

WORKLOADS = {
    "verify-q9": {"q": 9, "argv": ["verify-all", "--q", "9"]},
    "verify-q11": {"q": 11, "argv": ["verify-all", "--q", "11"]},
    "sweep-q16-wide": {"q": 16, "argv": ["grs", "sweep", "--q", "16",
                                         "--families", "CON1E,CON4E"]},
}

#: end-to-end metric -> unit (reported with --trace 0)
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "unverified_share": "ratio",
    "nonfail_share": "ratio",
}

#: per-layer metrics that must repeat exactly between traced commands
EXACT = ("gf.arr.calls", "gf.arr.elems", "linalg_codes.enum.codewords",
         "linalg_codes.hull.calls", "linalg_codes.hull.max_n",
         "linalg_codes.rref.calls", "linalg_codes.rref.cells",
         "linalg_codes.mat_mul.macs", "linalg_codes.contains.calls",
         "ag.instances", "ag.residues.calls", "ag.residues.points",
         "ag.residues.calls_per_instance", "grs.instances", "trace.spans")

SKIPPED_CHECKS = ("grs.hull_dim_intersection", "ag.code_distance", "ag.hull_mds")

SETUP_PROBES = 6        # set-up-only interpreters per run, after one warm-up
MIN_ROUNDS = 2          # rounds of commands per run at least
RUN_LIMIT_S = 165.0     # stop starting commands that could end past this
HOST_PROBE_REPS = 80    # fixed gather repetitions: 0.12 to 0.25 s on a 2-core x86_64 VM


def host_probe() -> float:
    """Seconds for a fixed NumPy gather loop; recorded, never used to scale."""
    import numpy as np
    rng = np.random.default_rng(2404)
    table = rng.integers(0, 1 << 16, size=1 << 16, dtype=np.int32)
    idx = rng.integers(0, 1 << 16, size=1 << 20).astype(np.intp)
    t0 = time.perf_counter()
    acc = 0
    for _ in range(HOST_PROBE_REPS):
        acc += int(table[idx].sum())
    return time.perf_counter() - t0


def spawn(q: int, argv: list[str], timeout: float, setup_only=False,
          trace_out: Path | None = None) -> dict:
    """Run child.py once; return its output, status and meta record."""
    cmd = [sys.executable, str(HERE / "child.py"), "--q", str(q)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    cmd += ["--", *argv]
    env = dict(os.environ)
    env.pop("HERMHULL_THREADS", None)
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"returncode": None, "stdout": b"", "stderr": "timed out",
                "meta": None}
    stderr = proc.stderr.decode("utf-8", "replace")
    meta = None
    last = stderr.rstrip("\n").rsplit("\n", 1)[-1]
    if last.startswith("perfbench-meta "):
        meta = json.loads(last[len("perfbench-meta "):])
        meta["setup_s"] = meta.pop("ready") - t_spawn
    return {"returncode": proc.returncode, "stdout": proc.stdout,
            "stderr": stderr, "meta": meta}


def distribution(values: list[float]) -> dict:
    """Median, and the highest percentile with ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    tail = None
    if n >= 11:
        tail = {"pct": round(100.0 * (n - 10) / n, 2), "value": xs[n - 11]}
    return {"n": n, "median": statistics.median(xs) if xs else None,
            "tail": tail, "samples": values}


def run_commands(spec: dict, seconds: float, trace: bool, started: float,
                 validator) -> list[dict]:
    """The closed loop: commands one after another for about ``seconds``.

    A new round (one command, or an untraced and a traced one) starts only
    if a round of median length still ends within ``seconds``, so runs do
    not overshoot by a whole command; MIN_ROUNDS rounds always run.
    """
    import gate
    validated: set[str] = set()
    kinds = [False, True] if trace else [False]
    ops: list[dict] = []
    rounds: list[float] = []
    loop_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in kinds:
            now = time.perf_counter()
            trace_out = OUT / "trace.npz" if traced else None
            r = spawn(spec["q"], spec["argv"], RUN_LIMIT_S - (now - started),
                      trace_out=trace_out)
            outcome = gate.check(r["stdout"], r["stderr"],
                                 r["returncode"] if r["returncode"] is not None else -1,
                                 spec["q"], validator, validated)
            if r["meta"] is None or "wall_s" not in r["meta"]:
                outcome.ok = False
                outcome.reasons.append("no timing record from the command: "
                                       + r["stderr"][-300:])
            op = {"traced": traced, "outcome": outcome, "meta": r["meta"],
                  "output_bytes": len(r["stdout"])}
            if traced and outcome.ok:
                op["summary"] = summarise_trace(trace_out, r["meta"])
            ops.append(op)
        rounds.append(time.perf_counter() - round_start)
        now = time.perf_counter()
        est = statistics.median(rounds)
        if now - started + 1.5 * max(rounds) > RUN_LIMIT_S:
            return ops
        if len(rounds) >= MIN_ROUNDS and now - loop_start + est > seconds:
            return ops


def summarise_trace(path: Path, meta: dict) -> dict:
    import analysis
    trace = analysis.load(path)
    s = analysis.summarise(trace, meta["counts"], meta["wall_s"])
    return analysis.per_layer_metrics(s, meta["wall_s"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "hermhull" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"error: no hermhull sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import gate
    spec = WORKLOADS[args.workload]
    validator = gate.load_validator(SCHEMA)
    OUT.mkdir(exist_ok=True)

    probe_before = host_probe()
    setup = []
    for i in range(SETUP_PROBES + 1):
        r = spawn(spec["q"], [], RUN_LIMIT_S, setup_only=True)
        if r["returncode"] != 0 or r["meta"] is None:
            print("error: hermhull set-up failed:\n" + r["stderr"][-2000:],
                  file=sys.stderr)
            return 3
        if i:  # the first interpreter fills the bytecode cache
            setup.append(r["meta"]["setup_s"])
    ops = run_commands(spec, args.seconds, bool(args.trace), started, validator)
    probe_after = host_probe()

    digests = {o["outcome"].digest for o in ops if o["outcome"].ok}
    problems = [f"command {i}: {'; '.join(o['outcome'].reasons)}"
                for i, o in enumerate(ops) if not o["outcome"].ok]
    if len(digests) > 1:
        problems.append(f"stdout differs between commands: {sorted(digests)}")
        for o in ops:
            o["outcome"].ok = False
    good = [o for o in ops if o["outcome"].ok]
    plain = [o for o in good if not o["traced"]]
    traced = [o for o in good if o["traced"]]
    size = max((o["outcome"].reports for o in ops), default=1) or 1
    attempted = sum(o["outcome"].reports or size for o in ops)
    failed = sum(o["outcome"].reports or size for o in ops if not o["outcome"].ok)

    setup += [o["meta"]["setup_s"] for o in plain]
    wall = [o["meta"]["wall_s"] for o in plain]
    detail = {
        "workload": args.workload, "argv": spec["argv"], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "hermhull_threads": os.environ.get("HERMHULL_THREADS"),
        "python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count(), "problems": problems,
        "digests": sorted(digests),
        "verdicts": good[0]["outcome"].verdicts if good else None,
        "host_probe_s": [probe_before, probe_after],
        "setup_s": distribution(setup), "wall_s": distribution(wall),
        "traced_wall_s": distribution([o["meta"]["wall_s"] for o in traced]),
        "run_s": time.perf_counter() - started,
    }

    metrics: dict[str, float] = {}
    if args.trace == 0 and plain:
        out = plain[0]["outcome"]
        metrics = {
            "wall_s": statistics.median(wall),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(
                o["meta"]["maxrss_kb"] / 1024.0 for o in plain),
            "unverified_share": out.verdicts["PARTIAL"] / out.reports,
            "nonfail_share": (attempted - failed - sum(
                o["outcome"].verdicts["FAIL"] for o in good)) / attempted,
        }
        units = END_TO_END
    elif args.trace == 1 and traced and plain:
        metrics, units = per_layer(ops, problems)
    else:
        units = {}
    if problems and not metrics:
        print("\n".join(problems), file=sys.stderr)
    correct = not problems and bool(metrics)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def per_layer(ops: list[dict], problems: list[str]):
    """Median of each per-layer metric over traced commands.

    ``ops`` alternate untraced and traced commands; the tracing overhead is
    the median over rounds of traced / untraced ``wall_s``, so host drift
    between rounds cancels.
    """
    good = [o for o in ops if o["outcome"].ok]
    plain = [o for o in good if not o["traced"]]
    rows = [o["summary"] for o in good if o["traced"]]
    for key in EXACT:
        if len({r[key] for r in rows}) > 1:
            problems.append(f"work count {key} differs between traced commands")
    out = plain[0]["outcome"]
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    metrics["trace.overhead"] = statistics.median(
        t["meta"]["wall_s"] / u["meta"]["wall_s"] - 1.0
        for u, t in zip(ops[0::2], ops[1::2])
        if u["outcome"].ok and t["outcome"].ok)
    metrics["report.output_bytes"] = plain[0]["output_bytes"]
    metrics["report.checks_run"] = out.checks_run
    metrics["report.checks_run_per_s"] = statistics.median(
        o["outcome"].checks_run / o["meta"]["wall_s"] for o in plain)
    metrics["grs.checks_skipped"] = sum(
        v for k, v in out.skipped.items() if k.startswith("grs."))
    for name in SKIPPED_CHECKS:
        module, check = name.split(".", 1)
        metrics[f"{module}.checks_skipped.{check}"] = out.skipped.get(name, 0)
    return metrics, {k: per_layer_unit(k) for k in metrics}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "coverage", "overhead", "per_instance")):
        return "ratio"
    if name.endswith("output_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
