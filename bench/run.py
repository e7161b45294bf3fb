"""embcat benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload pair-report --seed 1 --seconds 33 --trace 0

Run from the root of an embcat checkout; the program under test is the
checkout's own src/embcat. The run generates the workload's inputs for the
seed (set-up, repeated and timed), then runs the workload's embcat commands
as child processes, one after another, until --seconds have passed. Every
command's report and output files are checked; the last line of standard
output is one JSON object with the verdict and the metrics.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
child runs with traced runs of the same commands in this process, and
reports the per-layer metrics (see bench/README.md).
"""

import os

# one BLAS thread in this process and every child: --threads is then the
# program's only parallelism. Must be set before numpy loads.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # a child still running then is killed: the run must end within 180 s
WORK_DIR = ".bench_work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def run_child(argv: list[str], wdir: Path, env: dict, deadline: float) -> dict:
    """Run `python -m embcat.cli argv` in wdir; wall time, CPU time and
    peak RSS come from the child's own rusage. The child is killed at
    `deadline` (a time.perf_counter() value)."""
    out_path, err_path = wdir / ".stdout", wdir / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "embcat.cli", *argv],
                                cwd=wdir, env=env, stdout=out, stderr=err)
        # block in wait4 (no polling beside a 2-thread child on 2 cores);
        # the timer kills a hung child
        killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_bytes(),
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "rss_mb": ru.ru_maxrss / 1024.0,
    }


class Verifier:
    """Checks each command execution: exit code, the workload's semantic
    check (first execution of each command), and identical digests of its
    report and output files across every execution of the run and across
    runs of the same seed in this checkout."""

    def __init__(self, commands, wdir: Path, record: Path):
        self.commands = {c.label: c for c in commands}
        self.wdir = wdir
        self.record = record
        # a record counts only for byte-identical inputs; one made by other
        # generator code is replaced
        self.inputs = {p: workloads.sha256(wdir / p) for c in commands for p in c.inputs}
        self.recorded = None
        if record.exists():
            saved = json.loads(record.read_text())
            if saved["inputs"] == self.inputs:
                self.recorded = saved["outputs"]
        self.digests: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, label: str, code: int, stdout: bytes, stderr: bytes) -> bool:
        self.attempted += 1
        problems = self._problems(label, code, stdout, stderr)
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        return not problems

    def _problems(self, label, code, stdout, stderr) -> list[str]:
        cmd = self.commands[label]
        if code != 0:
            return [f"exit code {code}: {stderr.decode(errors='replace').strip()[-400:]}"]
        digests = {"report": hashlib.sha256(stdout).hexdigest()}
        for name in cmd.outputs:
            digests[name] = workloads.sha256(self.wdir / name)
        if label not in self.digests:
            try:
                report = json.loads(stdout)
                problems = cmd.check(report, self.wdir)
            except (ValueError, KeyError, TypeError, OSError) as e:
                problems = [f"unreadable output: {e!r}"]
            if problems:
                return problems
            self.digests[label] = digests
        if digests != self.digests[label]:
            return ["report or output digests differ from this run's first execution"]
        if self.recorded is not None and digests != self.recorded.get(label):
            return [f"digests differ from those recorded for this seed in {self.record}"]
        return []

    def save(self):
        if self.recorded is None and not self.failed and len(self.digests) == len(self.commands):
            self.record.parent.mkdir(parents=True, exist_ok=True)
            saved = {"inputs": self.inputs, "outputs": self.digests}
            self.record.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")


def environment(root: Path, args, commands, wdir: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    inputs = sorted({p for c in commands for p in c.inputs})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_pin": BLAS_PIN,
        "threads": sorted({c.argv[c.argv.index("--threads") + 1] for c in commands}),
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_bytes": {p: (wdir / p).stat().st_size for p in inputs},
    }


def setup(build, seed: int, wdir: Path):
    """Generate the inputs SETUP_REPEATS times; the median is setup_s.
    Then, untimed, flush every input to disk, so no writeback competes
    with the measured commands, and read it once, so all runs start warm."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(wdir, ignore_errors=True)
        wdir.mkdir(parents=True)
        t0 = time.perf_counter()
        commands = build(seed, wdir)
        times.append(time.perf_counter() - t0)
    for c in commands:
        for name in c.inputs:
            with open(wdir / name, "rb") as f:
                os.fsync(f.fileno())
                while f.read(1 << 22):
                    pass
    return commands, statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "embcat" / "cli.py").is_file():
        print(f"error: no embcat source under {src}; run from an embcat checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")

    wdir = root / WORK_DIR / args.workload
    commands, setup_s = setup(workloads.WORKLOADS[args.workload], args.seed, wdir)
    verify = Verifier(commands, wdir,
                      root / WORK_DIR / "digests" / f"{args.workload}-seed{args.seed}.json")
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(str(src))
        tracer.install()

    iterations = []  # untraced: per-iteration end-to-end figures
    traced = []  # traced: per-iteration layer metrics
    t_start = time.perf_counter()
    while True:
        done = [it["wall_s"] for it in iterations] + [m["trace.wall_s"] for m in traced]
        elapsed = time.perf_counter() - t_start
        if done and elapsed + statistics.median(done) > args.seconds:
            break
        if tracer is not None and len(traced) < len(iterations):
            traced.append(traced_iteration(tracer, commands, wdir, verify))
        else:
            iterations.append(child_iteration(commands, wdir, env, verify, deadline))
    if tracer is not None and not traced:
        traced.append(traced_iteration(tracer, commands, wdir, verify))
    verify.save()

    env_record = environment(root, args, commands, wdir)
    accounting_ok = True
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(it["wall_s"] for it in iterations),
            "cpu_s": statistics.median(it["cpu_s"] for it in iterations),
            "rows_per_s": statistics.median(it["rows"] / it["wall_s"] for it in iterations),
            "peak_rss_mb": statistics.median(it["rss_mb"] for it in iterations),
        }
        units = END_TO_END_UNITS
    else:
        metrics = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
            it["wall_s"] for it in iterations)
        units = {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
        for m in traced:
            accounted = sum(m[f"{layer}.self.s"] for layer in tracing.LAYERS) + m["cli.self.s"]
            if abs(accounted - m["trace.wall_s"]) > 0.01 * m["trace.wall_s"]:
                accounting_ok = False
                verify.problems.append(
                    f"layer self times sum to {accounted:.4f} s, traced wall {m['trace.wall_s']:.4f} s")
        spans_path = root / WORK_DIR / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(tracer.spans_json()))

    error_rate = verify.failed / verify.attempted
    result = {
        "correct": verify.failed == 0 and accounting_ok,
        "attempted": verify.attempted,
        "failed": verify.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    save_result(root, args, env_record, result, iterations, traced, verify.problems)

    for p in verify.problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    print(f"# environment {json.dumps(env_record, sort_keys=True)}")
    print(f"# {args.workload} seed {args.seed}: {len(iterations)} untraced and "
          f"{len(traced)} traced iterations")
    for k, v in metrics.items():
        print(f"{args.workload:12s} {k:34s} {v:14.6g} {units[k]}")
    print(f"{args.workload:12s} {'error_rate':34s} {error_rate:14.6g} ratio")
    print(json.dumps(result))
    return 0


def child_iteration(commands, wdir: Path, env: dict, verify: Verifier, deadline: float) -> dict:
    it = {"wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "rows": 0}
    for c in commands:
        r = run_child(c.argv, wdir, env, deadline)
        verify(c.label, r["code"], r["stdout"], r["stderr"])
        it["wall_s"] += r["wall_s"]
        it["cpu_s"] += r["cpu_s"]
        it["rss_mb"] = max(it["rss_mb"], r["rss_mb"])
        it["rows"] += c.rows
    return it


def traced_iteration(tracer: tracing.Tracer, commands, wdir: Path, verify: Verifier) -> dict:
    first = len(tracer.spans)
    for key in tracer.counts:
        tracer.counts[key] = 0
    for c in commands:
        code, stdout, stderr = tracer.run(c.argv, wdir)
        verify(c.label, code, stdout, stderr)
    return tracing.layer_metrics(tracer.spans[first:], tracer.counts)


def save_result(root, args, env_record, result, iterations, traced, problems):
    path = root / WORK_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "environment": env_record,
        "result": result,
        "iterations": iterations,
        "traced_iterations": traced,
        "problems": problems,
    }, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
