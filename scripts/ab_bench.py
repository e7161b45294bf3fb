#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark in two checkouts of embcat.

    python3 scripts/ab_bench.py PARENT CHANGE --workload recommend-4 \\
        --seeds 9301-9310 --seconds 33

For each seed, PARENT's bench/run.py first records the parent's report and
output digests for that seed (a one-iteration run, skipped when PARENT
already holds the record), and the record is copied into CHANGE's
.bench_work/digests/: every CHANGE run of that seed is then also checked
byte for byte against the parent. Then each checkout makes one timed run,
the parent first in even-numbered pairs and the change first in odd ones.
Each run's verdict is printed as it ends. The summary gives, per
end-to-end metric, each side's median and quartiles and the pairs in which
the change was better (ties count for neither side), and whether that meets
the gain rule: better in at least nine pairs of ten, and medians further
apart than the parent's interquartile range.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """"A-B" as the seeds A to B inclusive, or "A" as one seed."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def digest_record(checkout: Path, workload: str, seed: int) -> Path:
    """Where bench/run.py keeps a seed's digests (its Verifier's record)."""
    return checkout / ".bench_work" / "digests" / f"{workload}-seed{seed}.json"


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object that ends one bench/run.py run's output in
    `checkout`, with the run's CHECK FAILED lines under "problems"."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: bench/run.py failed on seed {seed}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["problems"] = [line for line in proc.stderr.splitlines() if line.startswith("CHECK FAILED")]
    return result


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[dict]:
    """Per end-to-end metric of (parent, change) result pairs: each side's
    median and quartiles, the pairs the change won and whether the gain
    rule holds. `better` maps a metric to "lower" or "higher"."""
    rows = []
    for name in pairs[0][0]["metrics"]:
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        p_q1, p_q3 = _quartiles(parent)
        rows.append({
            "metric": name,
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "parent": (p_med, p_q1, p_q3),
            "change": (c_med, *_quartiles(change)),
            "wins": wins,
            "pairs": len(pairs),
            "gain": wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > p_q3 - p_q1,
        })
    return rows


def report(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> str:
    """The summary table, and each side's failed runs and operations."""
    out = [f"{'metric':12s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
           f"  change better  gain"]
    for row in summarize(pairs, better):
        p, c = ("{:.4g} [{:.4g}, {:.4g}]".format(*row[side]) for side in ("parent", "change"))
        out.append(f"{row['metric']:12s} {p:>34s} {c:>34s}  {row['wins']:>4d} of {row['pairs']:<4d}"
                   f"   {'yes' if row['gain'] else 'no':3s}  {row['unit']}")
    for side, i in (("parent", 0), ("change", 1)):
        runs = [pair[i] for pair in pairs]
        wrong = sum(not r["correct"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        out.append(f"{side}: {wrong} of {len(runs)} runs not correct, "
                   f"{failed} of {attempted} operations failed")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    pairs = []
    for i, seed in enumerate(args.seeds):
        record = digest_record(args.parent, args.workload, seed)
        if not record.exists():
            run_bench(args.parent, args.workload, seed, 0)
        if not record.exists():
            sys.exit(f"{args.parent}: no digest record for seed {seed}")
        target = digest_record(args.change, args.workload, seed)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(record, target)
        order = [("parent", args.parent), ("change", args.change)]
        results = {}
        for side, checkout in order if i % 2 == 0 else order[::-1]:
            result = run_bench(checkout, args.workload, seed, args.seconds)
            results[side] = result
            values = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
            print(f"seed {seed} {side}: correct={result['correct']} {values}", flush=True)
            for problem in result["problems"]:
                print(f"  {problem}", flush=True)
        pairs.append((results["parent"], results["change"]))
    print(report(pairs, better))
    return 0


if __name__ == "__main__":
    sys.exit(main())
