"""Seeded input generators for the benchmark workloads.

Every input is built here with numpy alone, never with moebiusgeo, so the
program under test only ever sees the generated files.  Each generator also
returns what the oracles need to check the answer: the generating points,
the expected exit code, or the closed-form value.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

SCAN_N = 64
SCAN_N_LARGE = 96
INVERT_N = 48
ELLS = (0.5, 1.0, 2.0)
ANGLE_COUNTS = (6, 24, 48)
CORPUS_SPACES = 2000
CORPUS_KINDS = ("sphere", "hemisphere", "euclidean", "halfspace",
                "ball-complement", "line", "l1")
CORPUS_COUNTS = (4, 16)


def pairwise(P: np.ndarray, p: float = 2.0) -> np.ndarray:
    """Distance matrix of coordinate rows under the l^2 or l^1 norm."""
    diff = P[:, None, :] - P[None, :, :]
    if p == 1.0:
        return np.abs(diff).sum(axis=-1)
    return np.sqrt((diff ** 2).sum(axis=-1))


def with_omega(D: np.ndarray) -> np.ndarray:
    """Append a remote point at infinite distance from every other point."""
    n = len(D)
    full = np.full((n + 1, n + 1), np.inf)
    full[:n, :n] = D
    full[n, n] = 0.0
    return full


def labels_for(n: int) -> list[str]:
    return [f"p{i}" for i in range(n)]


def write_space(path: str, D: np.ndarray, omega: bool = False) -> list[str]:
    """Distance-matrix JSON in the CLI's input format; returns the labels."""
    n = len(D)
    labels = labels_for(n - 1) + ["omega"] if omega else labels_for(n)
    matrix = D.tolist()
    if omega:
        matrix = [["inf" if math.isinf(v) else v for v in row] for row in matrix]
    with open(path, "w") as fh:
        fh.write(json.dumps({"points": labels, "omega": "omega" if omega else None,
                             "matrix": matrix}))
    return labels


def write_curve(path: str, R: float, samples: np.ndarray, circle: bool) -> None:
    data = {"R": float(R), "samples": samples.tolist()}
    if circle:
        data["kind"] = "circle"
    with open(path, "w") as fh:
        fh.write(json.dumps(data))


def _unit_rows(rng, count: int, dim: int) -> np.ndarray:
    g = rng.standard_normal((count, dim))
    return g / np.linalg.norm(g, axis=1)[:, None]


def _jittered(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """n increasing values from lo to hi, spacing varied by up to +-30%."""
    t = np.linspace(lo, hi, n)
    step = (hi - lo) / (n - 1)
    t[1:-1] += rng.uniform(-0.3, 0.3, n - 2) * step
    return t


def _invert_plane(P: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Planar inversion in the unit circle about ``center``: a Moebius map."""
    v = P - center
    return center + v / (v ** 2).sum(axis=1)[:, None]


# ---------------------------------------------------------------- scan

def scan_ops(rng, tmp: str, n: int = SCAN_N, n_large: int = SCAN_N_LARGE,
             n_invert: int = INVERT_N) -> list[dict]:
    """Ptolemy checks (sphere, hemisphere, Euclidean + omega, l1 control)
    and one inversion; the l1 space embeds an axis-aligned square."""
    ops = []

    def check(name, D, omega, exit_code):
        path = os.path.join(tmp, f"{name}.json")
        write_space(path, D, omega)
        ops.append({"kind": "check", "name": name, "input": path, "omega": omega,
                    "exit": exit_code, "dist": D})

    check(f"sphere{n}", pairwise(_unit_rows(rng, n, 3)), False, 0)
    hemi = _unit_rows(rng, n, 3)
    hemi[:, -1] = np.abs(hemi[:, -1])
    check(f"hemisphere{n}", pairwise(hemi), False, 0)
    check(f"euclid{n - 1}+omega", with_omega(pairwise(rng.standard_normal((n - 1, 3)))),
          True, 0)
    pts = rng.uniform(-1.0, 1.0, (n, 2))
    cx, cy = rng.uniform(-0.5, 0.5, 2)
    h = rng.uniform(0.2, 0.5)
    pts[:4] = [[cx - h, cy - h], [cx + h, cy - h], [cx + h, cy + h], [cx - h, cy + h]]
    check(f"l1_{n}", pairwise(pts, p=1.0), False, 2)
    check(f"sphere{n_large}", pairwise(_unit_rows(rng, n_large, 3)), False, 0)

    D = pairwise(rng.standard_normal((n_invert, 3)))
    path = os.path.join(tmp, f"invert{n_invert}.json")
    write_space(path, D)
    ops.append({"kind": "invert", "name": f"invert{n_invert}", "input": path,
                "at": "p0", "bound_at": "p1", "exit": 0, "dist": D})
    return ops


def scan_argv(op: dict, out: str) -> list[str]:
    if op["kind"] == "check":
        return ["check", op["input"], "--output", out]
    return ["invert", op["input"], "--at", op["at"], "--bound-at", op["bound_at"],
            "--output", out]


# ---------------------------------------------------------------- curves

def arc_points(rng, n: int) -> np.ndarray:
    """n ordered points on a planar circular arc, spacing jittered."""
    r = rng.uniform(0.5, 2.0)
    half = rng.uniform(0.4, 1.4)
    phi = _jittered(rng, -half, half, n)
    return r * np.column_stack([np.cos(phi), np.sin(phi)])


def circle_points(rng, n: int) -> np.ndarray:
    """n points in cyclic order on a circle, spacing jittered."""
    r = rng.uniform(0.5, 2.0)
    theta = _jittered(rng, 0.0, 2.0 * np.pi, n + 1)[:-1] + rng.uniform(0, 2 * np.pi)
    return r * np.column_stack([np.cos(theta), np.sin(theta)])


def segment_samples(P: np.ndarray) -> tuple[float, np.ndarray]:
    """Quadrant curve of ordered segment points: (d(., last), d(., first))."""
    D = pairwise(P)
    return float(D[0, -1]), np.column_stack([D[:, -1], D[:, 0]])


def circle_samples(P: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """Halfplane curve of cyclic circle points with base pair (0, k)."""
    D = pairwise(P)
    n = len(P)
    sign = np.where(np.arange(n) <= k, 1.0, -1.0)
    R = float(D[0, k])
    samples = np.vstack([np.column_stack([sign * D[:, k], D[:, 0]]), [-R, 0.0]])
    return R, samples


def _opposite(P: np.ndarray) -> int:
    """Index of the point farthest from the first: the second base point."""
    return int(np.argmax(pairwise(P)[0]))


def _far_center(rng, P: np.ndarray) -> np.ndarray:
    """An inversion center well outside the circle through the points."""
    mid = P.mean(axis=0)
    span = float(np.abs(P - mid).max())
    ang = rng.uniform(0.0, 2.0 * np.pi)
    return mid + 3.0 * span * np.array([math.cos(ang), math.sin(ang)])


def curves_ops(rng, tmp: str, big: int = 1025, middle: int = 780, small: int = 360,
               map_src: int = 21, map_circle: int = 36) -> list[dict]:
    """Classify, synth and map on segments and circles of 360-1025 points.

    Nine operations whose costs sort into three cheap ones (circle map and
    the two 360-point classifies), the two 780-point classifies, and four
    dear ones (1025-point segment classify, both synths, segment map).  At
    two rounds both the median and the tail percentile then read samples of
    the two middle operations, never the edge between two groups.
    """
    ops = []

    def space_file(name, P):
        path = os.path.join(tmp, f"{name}.json")
        write_space(path, pairwise(P))
        return path

    for n in (big, middle, small):
        P = arc_points(rng, n)
        path = space_file(f"segment{n}", P)
        R, samples = segment_samples(P)
        ops.append({"kind": "segment_classify", "name": f"segment{n}", "input": path,
                    "R": R, "samples": samples, "csv": True})
        if n == big:
            dst_path, dst_points = path, P
    for n in (middle, small):
        P = circle_points(rng, n)
        k = _opposite(P)
        path = space_file(f"circle{n}", P)
        R, samples = circle_samples(P, k)
        ops.append({"kind": "circle_classify", "name": f"circle{n}", "input": path,
                    "minus_one": f"p{k}", "R": R, "samples": samples})

    R, samples = segment_samples(arc_points(rng, big))
    path = os.path.join(tmp, f"segcurve{big}.json")
    write_curve(path, R, samples, circle=False)
    ops.append({"kind": "segment_synth", "name": f"segcurve{big}", "input": path,
                "R": R, "samples": samples})
    P = circle_points(rng, big - 1)
    R, samples = circle_samples(P, _opposite(P))
    path = os.path.join(tmp, f"circcurve{big}.json")
    write_curve(path, R, samples, circle=True)
    ops.append({"kind": "circle_synth", "name": f"circcurve{big}", "input": path,
                "R": R, "samples": samples})

    # The source is a Moebius image of a subset of the destination samples,
    # so every source point has an exact counterpart on the destination.
    picks = np.round(np.linspace(0, big - 1, map_src)).astype(int)
    src = _invert_plane(dst_points[picks], _far_center(rng, dst_points))
    src_path = space_file(f"mapsrc{map_src}", src)
    half = map_src // 2
    ops.append({"kind": "segment_map", "name": f"map_segment{map_src}to{big}",
                "src": src_path, "dst": dst_path, "n_src": map_src,
                "src_anchors": f"p0,p{half},p{map_src - 1}",
                "dst_anchors": f"p0,p{picks[half]},p{big - 1}",
                "anchor_params": [0.0, picks[half] / (big - 1), 1.0]})
    dst = circle_points(rng, map_circle)
    src = _invert_plane(dst, _far_center(rng, dst))
    third = map_circle // 3
    anchors = f"p0,p{third},p{2 * third}"
    ops.append({"kind": "circle_map", "name": f"map_circle{map_circle}",
                "src": space_file(f"mapcsrc{map_circle}", src),
                "dst": space_file(f"mapcdst{map_circle}", dst), "n_src": map_circle,
                "src_anchors": anchors, "dst_anchors": anchors})
    return ops


def curves_argv(op: dict, out: str) -> list[str]:
    kind = op["kind"]
    if kind == "segment_classify":
        return ["segment", "classify", op["input"], "--csv", out + ".csv", "--output", out]
    if kind == "circle_classify":
        return ["circle", "classify", op["input"], "--minus-one", op["minus_one"],
                "--output", out]
    if kind == "segment_synth":
        return ["segment", "synth", op["input"], "--output", out]
    if kind == "circle_synth":
        return ["circle", "synth", op["input"], "--output", out]
    which = "segment" if kind == "segment_map" else "circle"
    return ["map", which, "--src", op["src"], "--dst", op["dst"],
            "--src-anchors", op["src_anchors"], "--dst-anchors", op["dst_anchors"],
            "--output", out]


# ---------------------------------------------------------------- glued

def glued_ops(rng, tmp: str, ells=ELLS, angle_counts=ANGLE_COUNTS) -> list[dict]:
    """Every (l, angle count) pair, in a seeded order."""
    pairs = [(ell, k) for ell in ells for k in angle_counts]
    order = rng.permutation(len(pairs))
    return [{"kind": "exotic", "name": f"exotic_l{pairs[i][0]}_a{pairs[i][1]}",
             "ell": pairs[i][0], "angles": pairs[i][1]} for i in order]


def glued_argv(op: dict, out: str) -> list[str]:
    return ["exotic", "--l", repr(op["ell"]), "--angles", str(op["angles"]),
            "--output", out]


# ---------------------------------------------------------------- corpus

def corpus_specs(rng, count: int = CORPUS_SPACES) -> list[dict]:
    """``sample_space`` arguments: kinds, sizes and dimensions cycle through
    every combination, so each seed has the same mix and only the sampled
    points change with it."""
    lo, hi = CORPUS_COUNTS
    sizes = range(lo, hi + 1)
    seeds = rng.integers(0, 2 ** 31, count)
    return [{"kind": CORPUS_KINDS[i % len(CORPUS_KINDS)], "n": 1 + i % 3,
             "count": sizes[i % len(sizes)], "seed": int(seeds[i])} for i in range(count)]


def make_ops(workload: str, seed: int, tmp: str, tiny: bool = False) -> list[dict]:
    rng = np.random.default_rng([seed, ("scan", "curves", "glued", "corpus").index(workload)])
    if workload == "scan":
        return scan_ops(rng, tmp, *((8, 12, 6) if tiny else ()))
    if workload == "curves":
        return curves_ops(rng, tmp, *((33, 24, 17, 9, 12) if tiny else ()))
    if workload == "glued":
        return glued_ops(rng, tmp, *(((1.0,), (4,)) if tiny else ()))
    return corpus_specs(rng, 70 if tiny else CORPUS_SPACES)


def argv_for(workload: str, op: dict, out: str) -> list[str]:
    return {"scan": scan_argv, "curves": curves_argv, "glued": glued_argv}[workload](op, out)
