"""Run the benchmark on several seeds, workloads interleaved, and report spreads.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1]
                                [--workloads a,b] [--trace 0|1]

Workloads alternate within each seed, so host drift hits all of them.  For
each metric it prints the median, the quartiles (``statistics.quantiles``
with n=4) and the spread (Q3 - Q1) / median next to a third of the metric's
bound from BENCHMARK.json.  It also checks that every run was correct, that
each workload printed one stdout digest throughout, and that the exact work
counts repeat.  All run records go to perfbench/out/spread-*.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return {"detail": json.loads(lines[-2])["detail"],
            "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    bounds = {m["name"]: m.get("bound") for m in
              bench["per_layer" if args.trace else "end_to_end"]}

    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            r = one_run(w, seed, bench["run_seconds"], args.trace)
            runs[w].append(r)
            print(f"{w} seed {seed}: run {r['detail']['run_s']:.1f} s, "
                  f"correct {r['result']['correct']}", file=sys.stderr)

    ok = True
    report = {}
    for w in workloads:
        rs = runs[w]
        digests = {d for r in rs for d in r["detail"]["digests"]}
        probes = [p for r in rs for p in r["detail"]["host_probe_s"]]
        correct = all(r["result"]["correct"] and not r["result"]["failed"] for r in rs)
        rows = {}
        for m in bounds:
            vals = [r["result"]["metrics"][m]["value"] for r in rs]
            rows[m] = spread(vals) | {"values": vals}
        report[w] = {"metrics": rows, "digests": sorted(digests),
                     "host_probe_s": [min(probes), max(probes)]}
        print(f"\n{w}: correct={correct} digests={[d[:12] for d in digests]} "
              f"host probe {min(probes):.3f}..{max(probes):.3f} s")
        ok &= correct and len(digests) == 1
        for m, row in rows.items():
            b = bounds[m]
            flag = ""
            if b is not None:
                within = m == "setup_s" or row["spread"] <= b / 3
                flag = "ok" if within else "WIDE"
                ok &= row["spread"] <= b or m == "setup_s"
            elif args.trace and len({round(v, 12) for v in row["values"]}) == 1:
                flag = "exact"
            print(f"  {m:44s} median {row['median']:<12.6g} "
                  f"spread {row['spread']:.4f}"
                  + (f"  bound/3 {b / 3:.4f} {flag}" if b is not None else f"  {flag}"))
    out = HERE / "out" / (f"spread-trace{args.trace}-seeds{seeds.start}-"
                          f"{seeds.stop - 1}.json")
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "report": report}, indent=1))
    print(f"\nrecords: {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
