"""Benchmark of the moebiusgeo CLI and library; run from the repository root.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Workloads (see perfbench/README.md for why each was chosen):
  scan    `check` / `invert` on 48-96 point spaces: the O(n^4) quadruple scans
  curves  segment/circle classify, synth and map on 21-1025 points: JSON,
          validation and curve recovery
  glued   `exotic` at three l values and 6/24/48 equator angles: the seam
          minimizer and Gromov-product limits
  corpus  ~2000 small seeded spaces through the library in one worker
          process: per-call overhead of the same scan and validation layers

The CLI workloads are a closed loop with one client: one command at a time
in a fresh process, so at most two processes run at once.  --seconds sets
how much work a run does: a whole number of rounds of the workload's fixed
operation list, ceil(seconds / the round time measured at the baseline
commit), at least 2.  Every commit therefore runs the same operations, and
medians and percentiles compare like with like.  Every answer is checked by
perfbench/oracles.py.  With --trace 1 the operations run in one process
under a span tracer instead, and the per-layer metrics are printed.

The bounded timings are CPU time (user + system) of the processes doing the
work, rescaled by a speed reference timed between measurements (speed.py).
On a shared VM the wall clock also counts time the hypervisor gives to other
guests, and the CPU's speed itself drifts; wall times of the same code moved
by up to 30% between runs.  The wall-clock figures are printed and recorded
beside the bounded ones.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracles  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("scan", "curves", "glued", "corpus")
# Round time of each workload at the baseline commit on a 2-core x86-64 VM.
# A run makes ceil(seconds / round time) rounds.  Do not retune these when
# the program gets faster: they fix the work a run measures.
ROUND_S = {"scan": 9.0, "curves": 12.5, "glued": 4.0, "corpus": 3.5}
SETUP_LAUNCHES = 6
OP_TIMEOUT_S = 120.0
LAUNCHER = "import sys; from moebiusgeo.cli import console_main; sys.exit(console_main())"


class BenchError(Exception):
    """The benchmark itself cannot run here (not a failed operation)."""


def child_env(src: str) -> dict[str, str]:
    """The pinned environment of every process the benchmark starts.

    Built from scratch, so PTOLEMY_THREADS and other settings of the
    caller's shell cannot change what is measured.  numpy's BLAS pool is
    held to one thread: moebiusgeo makes no BLAS call worth threading, and
    the pool's start-up spins a helper thread for ~0.1 s on whichever core
    is free, which moves both the wall clock and the CPU time of every
    process by that much at random.
    """
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": src,
            "PYTHONHASHSEED": "0", "LC_ALL": "C.UTF-8",
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def launch(argv: list[str], env: dict, cwd: str, err_path: str,
           stdout=subprocess.DEVNULL, timeout: float = OP_TIMEOUT_S):
    """Run one process to completion.

    Returns (exit code, or None when killed on timeout; wall seconds; CPU
    seconds, user + system; peak RSS in MB).
    """
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=stdout, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if proc.returncode < 0 else proc.returncode
    return code, elapsed, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _last_line(path: str) -> str:
    with open(path, errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else ""


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no such percentile exists and the maximum
    (percentile 100) is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_tail(latencies: list[float], rounds: int) -> tuple[float, float, int]:
    """(value, percentile, samples per estimate) of the run's tail latency.

    When a round has more than ten operations the tail is taken per round
    and the median over rounds is reported: the eleventh-slowest of a whole
    run of thousands of millisecond operations is set by the machine's rare
    stalls, not by the program.  Smaller rounds are pooled over the run.
    """
    per_round = len(latencies) // rounds
    if per_round <= 10:
        value, pct = tail_latency(latencies)
        return value, pct, len(latencies)
    tails = [tail_latency(latencies[r * per_round:(r + 1) * per_round])
             for r in range(rounds)]
    return statistics.median(v for v, _ in tails), tails[0][1], per_round


class Bench:
    """One run of one workload in the checkout at ``root``."""

    def __init__(self, root: str, workload: str, seed: int, seconds: int, tiny: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.rounds = 2 if tiny else max(2, math.ceil(seconds / ROUND_S[workload]))
        self.env = child_env(os.path.join(root, "src"))
        self.python = sys.executable
        self.cpu = min(os.sched_getaffinity(0))
        self.tmp = ""

    def worker(self, *args: str) -> list[str]:
        return [self.python, os.path.join(HERE, "worker.py"), *args]

    def _err(self, name: str) -> str:
        return os.path.join(self.tmp, f"{name}.err")

    def _worker_result(self, argv: list[str], result: str, timeout: float) -> dict:
        code, _, _, rss = launch(argv, self.env, self.tmp, self._err("worker"), timeout=timeout)
        if code != 0:
            raise BenchError(f"worker exited with {code}: {_last_line(self._err('worker'))}")
        with open(result) as fh:
            data = json.load(fh)
        data["process_rss_mb"] = rss
        return data

    # -- set-up
    def startup(self, import_only: bool) -> tuple[float, float, str | None]:
        """One fresh start-up: (wall, CPU, reference index, problem) of
        `moebiusgeo --help`, or with ``import_only`` of a worker's import."""
        if not import_only:
            code, wall, cpu, _ = launch([self.python, "-c", LAUNCHER, "--help"], self.env,
                                        self.tmp, self._err("setup"))
        else:
            out = os.path.join(self.tmp, "import.out")
            with open(out, "w") as fh:
                code, _, _, _ = launch(self.worker("import"), self.env, self.tmp,
                                       self._err("setup"), stdout=fh)
            with open(out) as fh:
                wall, cpu = json.load(fh) if code == 0 else (math.nan, math.nan)
        k = self.speed.sample()
        problem = None if code == 0 else (f"start-up exited with {code}: "
                                          f"{_last_line(self._err('setup'))}")
        return wall, cpu, k, problem

    def setup_times(self, count: int, import_only: bool) -> tuple[list, list[str]]:
        """(wall, CPU, reference index) of ``count`` start-ups, and the failures."""
        runs = [self.startup(import_only) for _ in range(count)]
        return [r[:3] for r in runs if r[3] is None], [r[3] for r in runs if r[3]]

    def normalized_setup(self, setup: list) -> float:
        """Median normalized CPU time of the start-ups."""
        if not setup:
            return math.inf
        return statistics.median(c * self.speed.factor(k) for _, c, k in setup)

    # -- timed runs
    def run_cli(self) -> dict:
        ops = inputs.make_ops(self.workload, self.seed, self.tmp, self.tiny)
        data = {"wall": [], "cpu": [], "speed_index": [], "op_cpu": {}, "problems": [],
                "failed": 0, "peak_rss_mb": 0.0}
        for r in range(self.rounds):
            runs = []
            for i, op in enumerate(ops):
                out = os.path.join(self.tmp, f"out_{r}_{i}.json")
                argv = [self.python, "-c", LAUNCHER] + inputs.argv_for(self.workload, op, out)
                code, wall, cpu, rss = launch(argv, self.env, self.tmp, self._err(f"op_{i}"))
                data["speed_index"].append(self.speed.sample())
                runs.append((op, code, out, i))
                data["wall"].append(wall)
                data["cpu"].append(cpu)
                data["op_cpu"].setdefault(op["name"], []).append(cpu)
                data["peak_rss_mb"] = max(data["peak_rss_mb"], rss)
            failed, problems = self.check_round(runs)  # outside the timing
            data["failed"] += failed
            data["problems"] += problems
        data["attempted"] = len(data["cpu"])
        data["speed_samples"] = self.speed.samples
        return data

    def check_round(self, runs: list[tuple]) -> tuple[int, list[str]]:
        """Check (op, exit code, output path, op index) runs; delete the outputs."""
        failed, problems = 0, []
        for op, code, out, i in runs:
            found = ["timeout"] if code is None else oracles.check_cli_op(op, code, out)
            if found:
                failed += 1
                err = self._err(f"op_{i}")
                stderr = _last_line(err) if os.path.exists(err) else ""
                problems.append(f"{op['name']}: {found[0]} [stderr: {stderr}]")
            for path in (out, out + ".csv"):
                if os.path.exists(path):
                    os.remove(path)
        return failed, problems

    def run_corpus(self) -> dict:
        result = os.path.join(self.tmp, "corpus.json")
        argv = self.worker("corpus", str(self.seed), str(self.rounds),
                           "1" if self.tiny else "0", result)
        data = self._worker_result(argv, result, timeout=160.0)
        data["peak_rss_mb"] = data["process_rss_mb"]
        return data

    def run_trace(self) -> dict:
        result = os.path.join(self.tmp, "trace_result.json")
        out_dir = os.path.join(self.root, ".perfbench")
        trace_path = os.path.join(out_dir, f"trace-{self.workload}.json")
        rounds = max(1, self.rounds // 2)
        argv = self.worker("trace", self.workload, str(self.seed), str(rounds),
                           "1" if self.tiny else "0", self.tmp, result, trace_path)
        data = self._worker_result(argv, result, timeout=160.0)
        data["trace_path"] = os.path.relpath(trace_path, self.root)
        data["rounds"] = rounds
        return data

    # -- one run
    def run(self, trace: bool) -> dict:
        out_dir = os.path.join(self.root, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=f"{self.workload}-", dir=out_dir)
        # One core for the benchmark, its children and the speed reference,
        # so the reference is timed on the core the work runs on.
        os.sched_setaffinity(0, {self.cpu})
        self.speed = speed.SpeedTracker()
        self.speed.sample()
        try:
            if trace:
                imports, problems = self.setup_times(SETUP_LAUNCHES, import_only=True)
                if problems:
                    raise BenchError(problems[0])
                data = self.run_trace()
                metrics = {"cli.import_ms": 1000.0 * self.normalized_setup(imports)}
                metrics.update(data["metrics"])
                return {"metrics": metrics, "attempted": data["attempted"],
                        "failed": data["failed"], "problems": data["problems"],
                        "detail": {k: data[k] for k in ("self_s", "traced_s", "untraced_s",
                                                        "spans", "trace_path", "rounds")}}
            # Half the start-ups before the timed phase and half after, so a
            # drift in machine speed during the run moves them less.
            corpus = self.workload == "corpus"
            setup, setup_problems = self.setup_times(SETUP_LAUNCHES // 2, corpus)
            data = self.run_corpus() if corpus else self.run_cli()
            more, more_problems = self.setup_times(SETUP_LAUNCHES - SETUP_LAUNCHES // 2, corpus)
            setup += more
            setup_problems += more_problems
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)
        # The corpus worker timed the reference itself, between its blocks.
        tracker = speed.SpeedTracker(data["speed_samples"])
        ncpu = [c * tracker.factor(k) for c, k in zip(data["cpu"], data["speed_index"])]
        per_round = len(ncpu) // self.rounds
        rounds_ncpu = [sum(ncpu[r * per_round:(r + 1) * per_round]) for r in range(self.rounds)]
        rounds_wall = [sum(data["wall"][r * per_round:(r + 1) * per_round])
                       for r in range(self.rounds)]
        cpu_tail, pct, tail_samples = run_tail(ncpu, self.rounds)
        wall_tail, _, _ = run_tail(data["wall"], self.rounds)
        metrics = {
            "setup_s": self.normalized_setup(setup),
            "cpu_s": statistics.median(rounds_ncpu),
            "cpu_p50_ms": 1000.0 * statistics.median(ncpu),
            "cpu_tail_ms": 1000.0 * cpu_tail,
            "peak_rss_mb": data["peak_rss_mb"],
        }
        wall_clock = {
            "setup_wall_s": statistics.median(w for w, _, _ in setup) if setup else math.inf,
            "wall_s": statistics.median(rounds_wall),
            "latency_p50_ms": 1000.0 * statistics.median(data["wall"]),
            "latency_tail_ms": 1000.0 * wall_tail,
        }
        return {"metrics": metrics, "attempted": data["attempted"],
                "failed": data["failed"] + len(setup_problems),
                "problems": setup_problems + data["problems"],
                "detail": {"wall_clock": wall_clock, "tail_percentile": pct,
                           "tail_samples": tail_samples, "samples": len(data["cpu"]),
                           "rounds": self.rounds, "setup_samples": setup,
                           "round_cpu": rounds_ncpu, "round_wall": rounds_wall,
                           "raw_cpu_p50_ms": 1000.0 * statistics.median(data["cpu"]),
                           "speed_samples": data["speed_samples"],
                           "op_cpu": data.get("op_cpu"),
                           "fail_frac": data["failed"] / max(1, data["attempted"])}}


def metric_units(root: str) -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def environment(env: dict) -> dict:
    """What a result depends on besides the code: cores, CPU, versions, child env."""
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "platform": platform.platform(), "child_env": env}


def check_checkout(root: str) -> None:
    if not os.path.isfile(os.path.join(root, "src", "moebiusgeo", "cli.py")):
        raise BenchError(f"no moebiusgeo sources under {os.path.join(root, 'src')}; "
                         "run from the repository root")


def run_one(workload: str, seed: int, seconds: int, trace: bool, tiny: bool = False) -> dict:
    root = os.getcwd()
    check_checkout(root)
    bench = Bench(root, workload, seed, seconds, tiny)
    result = bench.run(trace)
    result["env"] = environment(bench.env)
    result["env"]["pinned_cpu"] = bench.cpu
    result.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace))
    return result


WALL_CLOCK_UNITS = {"setup_wall_s": "s", "wall_s": "s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms"}


def report(result: dict) -> None:
    """Human-readable lines, a result file, then the JSON result line."""
    wl = result["workload"]
    detail = result["detail"]
    units = metric_units(os.getcwd())
    print(json.dumps({"env": result["env"]}, sort_keys=True))
    printed = [(name, value, units[name]) for name, value in result["metrics"].items()]
    printed += [(name, value, WALL_CLOCK_UNITS[name] + "  (wall clock, not bounded)")
                for name, value in detail.get("wall_clock", {}).items()]
    for name, value, unit in printed:
        if name in ("cpu_tail_ms", "latency_tail_ms"):
            unit += (f"  (p{detail['tail_percentile']:.2f} of {detail['tail_samples']} "
                     "operations" + (", median over rounds)" if detail["tail_samples"]
                                     < detail["samples"] else ")"))
        print(f"{wl:7s} {name:34s} {value:14.6g} {unit}")
    if "self_s" in detail:
        total = sum(detail["self_s"].values()) or 1.0
        top = sorted(detail["self_s"].items(), key=lambda kv: -kv[1])[:6]
        print(f"{wl:7s} self-time shares: "
              + ", ".join(f"{layer} {100 * t / total:.1f}%" for layer, t in top))
    if "fail_frac" in detail:
        print(f"{wl:7s} {'fail_frac':34s} {detail['fail_frac']:14.6g} ratio  "
              f"({result['failed']} of {result['attempted']} operations)")
    for problem in result["problems"][:10]:
        print(f"FAILED {problem}")
    out_dir = os.path.join(os.getcwd(), ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{wl}-seed{result['seed']}-trace{result['trace']}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    line = {"correct": result["failed"] == 0 and result["attempted"] > 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in result["metrics"].items()}}
    print(json.dumps(line), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that the oracles catch tampered answers, then "
                             "smoke-run every workload at tiny sizes")
    args = parser.parse_args(argv)
    # A terminated run still stops its child process (see launch) and
    # removes its temporary directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.selftest:
            import selftest
            return selftest.main()
        if args.workload is None:
            parser.error("--workload is required")
        report(run_one(args.workload, args.seed, args.seconds, bool(args.trace)))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
