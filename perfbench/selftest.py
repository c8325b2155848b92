"""Self-test of the benchmark: the checker must catch wrong answers.

    python3 perfbench/run.py --selftest

1. Runs real CLI commands at tiny sizes, checks that their genuine answers
   pass, then tampers with them (wrong exit code, perturbed worst_margin,
   wrong census count, exotic ratio off by 1e-6) and checks that each
   tampered answer counts as a failed operation.
2. Smoke-runs all four workloads at tiny sizes, untraced and traced, and
   checks that each prints every metric BENCHMARK.json names.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import inputs
import run


def _copy(path: str, tag: str, edit=None) -> str:
    """A copy of an output file, with ``edit`` applied to its JSON.

    Each case checks its own copy, because checking deletes the output.
    """
    with open(path) as fh:
        data = json.load(fh)
    if edit:
        edit(data)
    copy = f"{path}.{tag}.json"
    with open(copy, "w") as fh:
        json.dump(data, fh)
    return copy


def _run_op(bench: run.Bench, workload: str, op: dict, name: str) -> tuple[int, str]:
    out = os.path.join(bench.tmp, f"{name}.json")
    argv = [bench.python, "-c", run.LAUNCHER] + inputs.argv_for(workload, op, out)
    code, _, _, _ = run.launch(argv, bench.env, bench.tmp, bench._err(name))
    return code, out


def checker_cases(root: str) -> list[tuple[str, bool]]:
    results = []
    bench = run.Bench(root, "scan", 7, 1, tiny=True)
    bench.tmp = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(root, ".perfbench"))
    try:
        scan = inputs.make_ops("scan", 7, bench.tmp, tiny=True)
        sphere, l1 = scan[0], scan[3]
        glued = inputs.make_ops("glued", 7, bench.tmp, tiny=True)[0]
        sphere_code, sphere_out = _run_op(bench, "scan", sphere, "sphere")
        l1_code, l1_out = _run_op(bench, "scan", l1, "l1")
        exotic_code, exotic_out = _run_op(bench, "glued", glued, "exotic")

        def bump(key, delta):
            def edit(data):
                data[key] += delta
            return edit

        def bump_census(data):
            data["circle_quadruples"]["total"] += 1

        def bump_ratio(data):
            data["homothety"]["equator_ratio"] += 1e-6

        cases = [
            ("genuine sphere check", (sphere, sphere_code, _copy(sphere_out, "a")), 0),
            ("genuine l1 check", (l1, l1_code, _copy(l1_out, "a")), 0),
            ("genuine exotic report", (glued, exotic_code, _copy(exotic_out, "a")), 0),
            ("wrong exit code", (l1, 0, _copy(l1_out, "b")), 1),
            ("worst_margin + 1e-9", (sphere, sphere_code,
                                     _copy(sphere_out, "b", bump("worst_margin", 1e-9))), 1),
            ("census total + 1", (sphere, sphere_code,
                                  _copy(sphere_out, "c", bump_census)), 1),
            ("exotic equator_ratio + 1e-6", (glued, exotic_code,
                                             _copy(exotic_out, "b", bump_ratio)), 1),
        ]
        for label, (op, code, out), expected in cases:
            failed, problems = bench.check_round([(op, code, out, 0)])
            results.append((f"{label}: {failed} failed {problems[:1]}", failed == expected))
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)
    return results


def smoke_cases(root: str) -> list[tuple[str, bool]]:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    results = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            res = run.run_one(workload, 3, 1, bool(trace), tiny=True)
            missing = [n for n in names[trace] if n not in res["metrics"]]
            ok = res["failed"] == 0 and res["attempted"] > 0 and not missing
            results.append((f"tiny {workload} trace={trace}: {res['attempted']} operations, "
                            f"{res['failed']} failed, missing metrics {missing}", ok))
    return results


def main() -> int:
    root = os.getcwd()
    try:
        run.check_checkout(root)
    except run.BenchError as exc:  # run.py's own handler sees __main__.BenchError
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    results = checker_cases(root) + smoke_cases(root)
    for label, ok in results:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    failed = sum(not ok for _, ok in results)
    print(f"selftest: {len(results) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
