"""In-process half of the benchmark, run by run.py in a pinned environment.

    worker.py import                  time `import moebiusgeo`: print [wall, cpu]
    worker.py corpus SEED ROUNDS TINY RESULT
    worker.py trace WORKLOAD SEED ROUNDS TINY TMP RESULT TRACE

`corpus` times the library loop of the corpus workload.  `trace` runs every
operation of a workload twice in this process, once under the span tracer
and once without it, and reports per-layer metrics and the tracing overhead.
Both check every answer with the benchmark's own oracles.  Only the standard
library is imported before moebiusgeo, so the import time includes numpy.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _import_moebiusgeo() -> tuple[float, float]:
    """(wall, CPU) seconds of importing moebiusgeo and its CLI."""
    wall, cpu = time.perf_counter(), time.process_time()
    import moebiusgeo  # noqa: F401
    import moebiusgeo.cli  # noqa: F401
    return time.perf_counter() - wall, time.process_time() - cpu


# Spaces between two timings of the speed reference (~0.25 s of work).
SPEED_BLOCK = 200


def corpus_space(mg, spec: dict) -> dict:
    """sample_space -> is_ptolemy -> census -> invert_at -> crt_equivalent.

    The l1 controls are not Ptolemy, so they stop after the census.
    """
    space = mg.sample_space(spec["kind"], n=spec["n"], count=spec["count"], seed=spec["seed"])
    report = mg.is_ptolemy(space)
    census = mg.circle_quadruple_census(space)
    result = {"n": space.n, "omega": space.omega is not None, "ptolemy": report.holds,
              "n_checked": report.n_checked, "census": census, "dist": space.dist}
    if spec["kind"] != "l1":
        inverted = mg.invert_at(space, 0)
        eq = mg.crt_equivalent(mg.PointedCorrespondence.identity(space, inverted), eps=1e-9)
        result.update(inverted=inverted.dist, equivalent=eq.equivalent,
                      max_deviation=eq.max_deviation)
    return result


def _run_space(mg, spec: dict):
    try:
        return corpus_space(mg, spec), None
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        return None, f"{spec}: {exc!r}"


def _run_cli(mg, argv: list[str]):
    try:
        return mg.cli.main(argv), None
    except Exception as exc:  # an uncaught error is a failed operation
        return None, f"{argv}: {exc!r}"


def run_corpus(seed: int, rounds: int, tiny: bool, result_path: str) -> None:
    _import_moebiusgeo()
    import moebiusgeo as mg
    import inputs
    import oracles
    import speed

    specs = inputs.make_ops("corpus", seed, "", tiny)
    for spec in specs[:100]:  # warm lazy set-up in numpy before timing
        _run_space(mg, spec)
    data = {"wall": [], "cpu": [], "speed_index": [], "problems": [], "failed": 0}
    tracker = speed.SpeedTracker()
    tracker.sample()
    for _ in range(rounds):
        results = []
        for start in range(0, len(specs), SPEED_BLOCK):
            block = specs[start:start + SPEED_BLOCK]
            for spec in block:
                wall, cpu = time.perf_counter(), time.process_time()
                results.append(_run_space(mg, spec))
                data["cpu"].append(time.process_time() - cpu)
                data["wall"].append(time.perf_counter() - wall)
            data["speed_index"] += [tracker.sample()] * len(block)
        for spec, (res, error) in zip(specs, results):
            found = [error] if error else oracles.check_corpus_space(spec, res)
            data["failed"] += bool(found)
            data["problems"] += found[:1]
    data["speed_samples"] = tracker.samples
    data["attempted"] = len(data["cpu"])
    data["problems"] = data["problems"][:20]
    _write(result_path, data)


def run_trace(workload: str, seed: int, rounds: int, tiny: bool, tmp: str,
              result_path: str, trace_path: str) -> None:
    _import_moebiusgeo()
    import moebiusgeo as mg
    import inputs
    import oracles
    import tracing

    ops = inputs.make_ops(workload, seed, tmp, tiny)
    tracer = tracing.Tracer()
    timed = {True: 0.0, False: 0.0}
    attempted = failed = 0
    problems = []
    for r in range(rounds):
        for i, op in enumerate(ops):
            out = os.path.join(tmp, f"trace_{i}.json")
            # Traced first, so scan spans see their own memory peak.
            for traced in (True, False):
                tracer.op = r * len(ops) + i
                if traced:
                    tracer.install()
                t0 = time.process_time()
                try:
                    if workload == "corpus":
                        res, error = (tracer.span("corpus.space", _run_space, mg, op)
                                      if traced else _run_space(mg, op))
                    else:
                        res, error = _run_cli(mg, inputs.argv_for(workload, op, out))
                finally:
                    timed[traced] += time.process_time() - t0
                    tracer.uninstall()
                if error:
                    found = [error]
                elif workload == "corpus":
                    found = oracles.check_corpus_space(op, res)
                else:
                    found = oracles.check_cli_op(op, res, out)
                attempted += 1
                failed += bool(found)
                problems += found[:1]
    metrics, self_s = tracing.layer_metrics(tracer, rounds)
    metrics["trace.overhead_frac"] = timed[True] / timed[False] - 1.0
    tracer.dump(trace_path)
    _write(result_path, {"metrics": metrics, "self_s": self_s, "attempted": attempted,
                         "failed": failed, "problems": problems[:20],
                         "traced_s": timed[True], "untraced_s": timed[False],
                         "spans": len(tracer.names)})


def _write(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh)


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "import":
        print(json.dumps(_import_moebiusgeo()))
    elif mode == "corpus":
        run_corpus(int(argv[1]), int(argv[2]), argv[3] == "1", argv[4])
    elif mode == "trace":
        run_trace(argv[1], int(argv[2]), int(argv[3]), argv[4] == "1", argv[5],
                  argv[6], argv[7])
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
