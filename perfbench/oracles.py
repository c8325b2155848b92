"""Independent answer checks for every benchmark operation.

Nothing here imports moebiusgeo: each expected value is recomputed with
numpy from the generating data (raw cross-ratio products, closed-form
inversions, curve area forms, known boundary-metric ratios).  Every check
returns a list of problems; an empty list means the answer is correct.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from functools import lru_cache

import numpy as np

EPS = 1e-9              # the CLI's default classification tolerance
MARGIN_TOL = 1e-12      # worst_margin against the raw-product oracle
REL_TOL = 1e-12         # closed-form matrices and curve samples
MAP_CRT_TOL = 1e-6      # Moebius map cross-ratio deviation
GLUED_CRT_TOL = 1e-5
GLUED_SCALE_TOL = 1e-9  # equator ratio against exp(-l)
GLUED_NS_TOL = 1e-5     # N-S ratio against 1 / cosh(l)
GLUED_VISUAL_TOL = 1e-7  # rho_o on the equator against sin(angle / 2)
CORPUS_CRT_TOL = 1e-9


def n_subsets(n_finite: int, omega: bool) -> int:
    """Distinct 4-subsets of a space: C(m, 4) plus C(m, 3) with a remote point."""
    return math.comb(n_finite, 4) + (math.comb(n_finite, 3) if omega else 0)


def _factors(D: np.ndarray) -> np.ndarray:
    """Product factors: an infinite distance (to the remote point) counts as 1."""
    return np.where(np.isfinite(D), D, 1.0)


def quad_margins(D: np.ndarray) -> np.ndarray:
    """max(P) / sum(P) - 1/2 for every distinct 4-subset, from raw products.

    Works one leading index at a time over (j, k, l) cubes, so memory stays
    O(n^3) instead of holding every quadruple.
    """
    F = _factors(D)
    n = len(F)
    out = []
    for i in range(n - 3):
        r = np.arange(i + 1, n)
        jj, kk, ll = np.meshgrid(r, r, r, indexing="ij")
        keep = (jj < kk) & (kk < ll)
        j, k, l = jj[keep], kk[keep], ll[keep]
        p1 = F[i, j] * F[k, l]
        p2 = F[i, k] * F[j, l]
        p3 = F[i, l] * F[j, k]
        s = p1 + p2 + p3
        out.append(np.maximum(np.maximum(p1, p2), p3) / s - 0.5)
    return np.concatenate(out) if out else np.zeros(0)


@lru_cache(maxsize=64)
def _quads(n: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(n), 4)), dtype=np.int64).reshape(-1, 4)


def normalized_triples(D: np.ndarray) -> np.ndarray:
    q = _quads(len(D))
    F = _factors(D)
    i, j, k, l = q.T
    P = np.column_stack([F[i, j] * F[k, l], F[i, k] * F[j, l], F[i, l] * F[j, k]])
    return P / P.sum(axis=1)[:, None]


def crt_deviation(D1: np.ndarray, D2: np.ndarray) -> float:
    """Worst componentwise difference of normalized cross-ratio triples."""
    if len(D1) < 4:
        return 0.0
    return float(np.abs(normalized_triples(D1) - normalized_triples(D2)).max())


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _matrix(data: dict) -> np.ndarray:
    """Matrix cells as floats; numpy parses the remote point's "inf" strings."""
    return np.array(data["matrix"], dtype=float)


def _close(actual, expected, tol: float) -> bool:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return actual.shape == expected.shape and bool(np.all(np.abs(actual - expected) <= tol))


def area_form_metric(points: np.ndarray) -> np.ndarray:
    """|<Jp, q>| for planar curve points; proportional to the curve metric."""
    a, b = points[:, 0], points[:, 1]
    return np.abs(np.outer(a, b) - np.outer(b, a))


# ---------------------------------------------------------------- scan

def check_check(op: dict, code: int, out: dict) -> list[str]:
    problems = []
    D = op["dist"]
    m = len(D) - 1 if op["omega"] else len(D)
    total = n_subsets(m, op["omega"])
    if code != op["exit"]:
        problems.append(f"exit code {code}, expected {op['exit']}")
    if out["ptolemy"] is not (op["exit"] == 0):
        problems.append(f"ptolemy verdict {out['ptolemy']}")
    if out["n_quadruples"] != total:
        problems.append(f"n_quadruples {out['n_quadruples']} != {total}")
    census = out["circle_quadruples"]
    if census["total"] != total:
        problems.append(f"census total {census['total']} != {total}")
    if "margins" not in op:  # the input is the same every round
        op["margins"] = quad_margins(D)
    margins = op["margins"]
    worst = float(margins.max())
    if not abs(out["worst_margin"] - worst) <= MARGIN_TOL:
        problems.append(f"worst_margin {out['worst_margin']!r} != oracle {worst!r}")
    lo = int((np.abs(margins) <= EPS - MARGIN_TOL).sum())
    hi = int((np.abs(margins) <= EPS + MARGIN_TOL).sum())
    if not lo <= census["boundary"] <= hi:
        problems.append(f"census boundary {census['boundary']} outside [{lo}, {hi}]")
    if len(out["worst_quadruple"] or ()) != 4:
        problems.append("worst_quadruple is not a quadruple")
    embedding = out["line_embedding"]
    if op["omega"] != (embedding is None) or (embedding and embedding["embeddable"]):
        problems.append(f"line_embedding {embedding}")
    return problems


def inverted_bounded(D: np.ndarray, z: int, o: int) -> np.ndarray:
    """Closed forms: invert at z, then bound at o (z becomes finite again)."""
    n = len(D)
    fin = np.arange(n) != z
    inv = np.zeros((n, n))
    dz = np.where(fin, D[z], 1.0)
    inv[:] = D / np.outer(dz, dz)
    fac = np.where(fin, inv[o] + 1.0, 1.0)
    out = inv / np.outer(fac, fac)
    out[z, fin] = out[fin, z] = 1.0 / fac[fin]
    np.fill_diagonal(out, 0.0)
    return out


def check_invert(op: dict, code: int, out: dict) -> list[str]:
    problems = []
    if code != op["exit"]:
        problems.append(f"exit code {code}, expected {op['exit']}")
    D = op["dist"]
    labels = [f"p{i}" for i in range(len(D))]
    if out["points"] != labels or out["omega"] is not None:
        problems.append("labels or omega changed")
    expected = inverted_bounded(D, labels.index(op["at"]), labels.index(op["bound_at"]))
    got = _matrix(out)
    if got.shape != expected.shape or not np.all(np.abs(got - expected)
                                                 <= REL_TOL * np.abs(expected)):
        problems.append("inverted bounded matrix differs from the closed form")
    return problems


# ---------------------------------------------------------------- curves

def _check_curve(op: dict, out: dict, circle: bool) -> list[str]:
    problems = []
    R = op["R"]
    if circle != (out.get("kind") == "circle"):
        problems.append(f"curve kind {out.get('kind')!r}")
    if not abs(out["R"] - R) <= REL_TOL * R:
        problems.append(f"R {out['R']!r} != {R!r}")
    if not _close(out["samples"], op["samples"], REL_TOL * R):
        problems.append("curve samples differ from the generating distances")
    return problems


def check_segment_classify(op: dict, code: int, out: dict, csv_path: str) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    problems += _check_curve(op, out, circle=False)
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["t", "a", "b", "alpha"]:
        problems.append(f"csv header {rows[0]}")
    table = np.array(rows[1:], dtype=float)
    if table.shape != (len(op["samples"]), 4) or not _close(table[:, 1:3], op["samples"],
                                                          REL_TOL * op["R"]):
        problems.append("csv samples differ from the generating distances")
    return problems


def check_circle_classify(op: dict, code: int, out: dict) -> list[str]:
    return ([] if code == 0 else [f"exit code {code}"]) + _check_curve(op, out, circle=True)


def check_synth(op: dict, code: int, out: dict, circle: bool) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    S = op["samples"][:-1] if circle else op["samples"]
    expected = area_form_metric(S) / op["R"]
    np.fill_diagonal(expected, 0.0)
    if out["points"] != [f"t{i}" for i in range(len(S))] or out["omega"] is not None:
        problems.append("synthesized labels or omega")
    if not _close(_matrix(out), expected, REL_TOL * op["R"]):
        problems.append("synthesized metric differs from |<Jp, q>| / R")
    return problems


def check_map(op: dict, code: int, out: dict, src_dist: np.ndarray) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    pairs = out["pairs"]
    if len(pairs) != op["n_src"]:
        return problems + [f"{len(pairs)} pairs for {op['n_src']} source points"]
    dev = out["max_crt_deviation"]
    if dev is None or not dev <= MAP_CRT_TOL:
        problems.append(f"reported max_crt_deviation {dev}")
    mapped = area_form_metric(np.array([p["point"] for p in pairs], dtype=float))
    own = crt_deviation(src_dist, mapped)
    if not own <= MAP_CRT_TOL:
        problems.append(f"mapped points deviate by {own:.3e} in cross-ratio")
    if "anchor_params" in op:
        mid = op["n_src"] // 2
        got = [pairs[0]["position"], pairs[mid]["position"], pairs[-1]["position"]]
        if not _close(got, op["anchor_params"], 1e-9):
            problems.append(f"anchor positions {got} != {op['anchor_params']}")
    return problems


# ---------------------------------------------------------------- glued

def check_exotic(op: dict, code: int, out: dict) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    ell = op["ell"]
    k = op["angles"]
    if out["labels"] != ["N", "S"] + [f"a{i}" for i in range(k)]:
        problems.append("boundary labels")
    h = out["homothety"]
    if not abs(h["equator_ratio"] - math.exp(-ell)) <= GLUED_SCALE_TOL:
        problems.append(f"equator_ratio {h['equator_ratio']!r} != exp(-l)")
    if not abs(h["NS_ratio"] - 1.0 / math.cosh(ell)) <= GLUED_NS_TOL:
        problems.append(f"NS_ratio {h['NS_ratio']!r} != 1/cosh(l)")
    if not out["max_crt_dev"] <= GLUED_CRT_TOL:
        problems.append(f"max_crt_dev {out['max_crt_dev']!r}")
    if h["homothetic"] is not False:
        problems.append("metrics reported homothetic")
    # Seen from o, equator points sit on a round sphere: rho = sin(angle / 2).
    theta = 2.0 * np.pi * np.arange(k) / k
    visual = np.abs(np.sin((theta[:, None] - theta[None, :]) / 2.0))
    rho_o = np.array(out["rho_o"], dtype=float)
    if not _close(rho_o[2:, 2:], visual, GLUED_VISUAL_TOL):
        problems.append("rho_o on the equator differs from sin(angle / 2)")
    return problems


# ---------------------------------------------------------------- dispatch

def check_cli_op(op: dict, code: int, out_path: str) -> list[str]:
    """Check one CLI command's exit code and output file."""
    try:
        out = _load(out_path)
    except (OSError, ValueError) as exc:
        return [f"exit code {code}, no readable output ({exc})"]
    kind = op["kind"]
    try:
        if kind == "check":
            return check_check(op, code, out)
        if kind == "invert":
            return check_invert(op, code, out)
        if kind == "segment_classify":
            return check_segment_classify(op, code, out, out_path + ".csv")
        if kind == "circle_classify":
            return check_circle_classify(op, code, out)
        if kind in ("segment_synth", "circle_synth"):
            return check_synth(op, code, out, circle=kind == "circle_synth")
        if kind in ("segment_map", "circle_map"):
            return check_map(op, code, out, _matrix(_load(op["src"])))
        return check_exotic(op, code, out)
    except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
        return [f"malformed output: {exc!r}"]


def check_corpus_space(spec: dict, result: dict) -> list[str]:
    """One corpus space: verdict by kind, census, and inversion invariance."""
    problems = []
    kind = spec["kind"]
    omega = result["omega"]
    m = result["n"] - (1 if omega else 0)
    total = n_subsets(m, omega)
    if m != spec["count"]:
        problems.append(f"{m} finite points, expected {spec['count']}")
    if result["ptolemy"] is not (kind != "l1"):
        problems.append(f"{kind} Ptolemy verdict {result['ptolemy']}")
    if result["n_checked"] != total or result["census"][1] != total:
        problems.append(f"scan counts {result['n_checked']}, {result['census']} != {total}")
    if kind == "line" and result["census"][0] != total:
        problems.append(f"line census {result['census']} has off-boundary quadruples")
    if kind != "l1":
        own = crt_deviation(result["dist"], result["inverted"])
        if not (own <= CORPUS_CRT_TOL and result["equivalent"]
                and result["max_deviation"] <= CORPUS_CRT_TOL):
            problems.append(f"inversion crt deviation {own:.3e} "
                            f"(reported {result['max_deviation']:.3e})")
    return problems
