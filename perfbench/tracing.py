"""In-memory span tracer wrapped around moebiusgeo's public functions.

The tracer patches functions from the outside, so the program's own files
stay untouched.  A patched name is replaced in every moebiusgeo module that
holds it (``max_crt_deviation`` lives in ``spaces``, ``segments``,
``circles`` and ``inversions``), and the three validation hooks are patched
on their classes.  Each span records its name, start, end, parent span and
operation id; a few spans also record counts measured at the boundary.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time

# (module, attribute, layer).  The span name is "module.attribute".
TARGETS = (
    ("cli", "main", "cli.main"),
    ("spaces", "space_from_json_dict", "spaces.from_json"),
    ("spaces", "space_to_json_dict", "spaces.to_json"),
    ("spaces", "space_from_points", "spaces.from_points"),
    ("spaces", "ExtendedMetricSpace.__post_init__", "spaces.validate"),
    ("segments", "QuadrantCurve.__post_init__", "spaces.validate"),
    ("circles", "HalfplaneCurve.__post_init__", "spaces.validate"),
    ("spaces", "is_ptolemy", "spaces.scan"),
    ("spaces", "circle_quadruple_census", "spaces.scan"),
    ("spaces", "max_crt_deviation", "spaces.crt_deviation"),
    ("spaces", "line_embed", "spaces.line_embed"),
    ("inversions", "invert_at", "inversions.invert"),
    ("inversions", "bound_at", "inversions.invert"),
    ("inversions", "crt_equivalent", "inversions.crt_equivalent"),
    ("segments", "curve_from_segment", "segments.curve"),
    ("segments", "segment_from_curve", "segments.curve"),
    ("segments", "curve_from_json_dict", "segments.curve"),
    ("segments", "curve_to_json_dict", "segments.curve"),
    ("segments", "angle_parameterize", "segments.curve"),
    ("segments", "segment_moebius_map", "segments.map"),
    ("circles", "curve_from_circle", "circles.curve"),
    ("circles", "circle_from_curve", "circles.curve"),
    ("circles", "curve_from_json_dict", "circles.curve"),
    ("circles", "curve_to_json_dict", "circles.curve"),
    ("circles", "circle_moebius_map", "circles.map"),
    ("spheres", "sample_space", "spheres.sample"),
    ("glued", "seam_minimizer", "glued.seam"),
    ("glued", "gromov_product", "glued.gromov"),
    ("glued", "exotic_report", "glued.exotic"),
)

# Spans that build an input from outside data; a validation directly under
# one of these (or under the operation itself) is a validation at the
# input boundary.  space_from_points is looked through, so a space built
# from points by the caller or by sample_space counts as an input build.
INPUT_BUILDS = frozenset({"spaces.space_from_json_dict", "segments.curve_from_json_dict",
                          "circles.curve_from_json_dict", "spheres.sample_space"})
OP_ROOTS = frozenset({"cli.main", "corpus.space"})

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE / 2 ** 20


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _subsets(space) -> int:
    m = len(space.labels) - (space.omega is not None)
    return math.comb(m, 4) + (math.comb(m, 3) if space.omega is not None else 0)


def _seam_key(args) -> tuple:
    _, x, y = args[:3]
    return (x[0], tuple(map(float, x[1])), y[0], tuple(map(float, y[1])))


# Per-span probes: (before(args) -> info, after(args, result, info) -> info).
def _validate_before(args):
    obj = args[0]
    return {"points": len(obj.labels) if hasattr(obj, "labels") else len(obj.samples)}


def _scan_before(args):
    return {"rss0": _rss_mb(), "peak0": _peak_mb(), "space": id(args[0]),
            "subsets": _subsets(args[0])}


def _scan_after(args, result, info):
    info["quads"] = result.n_checked if hasattr(result, "n_checked") else result[1]
    peak = _peak_mb()
    if peak > info.pop("peak0"):
        info["rss_growth"] = peak - info["rss0"]
    del info["rss0"]
    return info


PROBES = {
    "spaces.validate": (_validate_before, None),
    "spaces.scan": (_scan_before, _scan_after),
    "spaces.crt_deviation": (lambda args: {"quads": len(args[4])}, None),
    "glued.seam": (lambda args: {"key": _seam_key(args)}, None),
}


class Tracer:
    """Keeps spans in memory while installed; ``dump`` writes them out."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.info: dict[int, dict] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._layer: dict[str, str] = {}
        self.op = -1

    # -- spans
    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span opened by the benchmark itself."""
        idx = self._open(name)
        self.starts[idx] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, layer: str, fn):
        before, after = PROBES.get(layer, (None, None))
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            info = before(args) if before else None
            tracer.starts[idx] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                tracer._stack.pop()
            if after:
                info = after(args, result, info)
            if info is not None:
                tracer.info[idx] = info
            return result

        return traced

    # -- patching
    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if (k == "moebiusgeo" or k.startswith("moebiusgeo.")) and m is not None]
        for mod_name, attr, layer in TARGETS:
            name = f"{mod_name}.{attr}"
            self._layer[name] = layer
            module = sys.modules[f"moebiusgeo.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, layer, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, layer, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results
    def layer_of(self, name: str) -> str:
        return self._layer.get(name, name)

    def self_times(self) -> list[float]:
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[idx]
        return own

    def at_boundary(self, idx: int) -> bool:
        """Whether a validation span sits directly under an input build."""
        parent = self.parents[idx]
        while parent >= 0 and self.names[parent] == "spaces.space_from_points":
            parent = self.parents[parent]
        return parent < 0 or self.names[parent] in INPUT_BUILDS | OP_ROOTS

    def dump(self, path: str) -> None:
        """Write every span as one JSON object (column lists)."""
        info = {str(k): {kk: vv for kk, vv in v.items() if kk != "key"}
                for k, v in self.info.items()}
        with open(path, "w") as fh:
            json.dump({"names": self.names, "starts": self.starts, "ends": self.ends,
                       "parents": self.parents, "ops": self.ops, "info": info}, fh)


def layer_metrics(tracer: Tracer, rounds: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics per round of the workload, and total self time by layer."""
    own = tracer.self_times()
    self_s: dict[str, float] = {}
    spans: dict[str, list[int]] = {}
    for idx, name in enumerate(tracer.names):
        layer = tracer.layer_of(name)
        self_s[layer] = self_s.get(layer, 0.0) + own[idx]
        spans.setdefault(layer, []).append(idx)

    def count(layer: str, key: str) -> float:
        return sum(tracer.info[i][key] for i in spans.get(layer, ()))

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    validations = spans.get("spaces.validate", [])
    scans = spans.get("spaces.scan", [])
    # A recursive seam call (arguments swapped) is the same crossing.
    seams = [i for i in spans.get("glued.seam", []) if tracer.parents[i] < 0
             or tracer.layer_of(tracer.names[tracer.parents[i]]) != "glued.seam"]
    subsets = {(tracer.ops[i], tracer.info[i]["space"]): tracer.info[i]["subsets"]
               for i in scans}
    crossings = {(tracer.ops[i], tracer.info[i]["key"]) for i in seams}
    quads = count("spaces.scan", "quads")

    layers = dict.fromkeys(layer for _, _, layer in TARGETS if layer != "spaces.from_points")
    metrics = {f"{layer}.self_s": self_s.get(layer, 0.0) / rounds for layer in layers}
    metrics.update({
        "spaces.validate.calls": len(validations) / rounds,
        "spaces.validate.points": count("spaces.validate", "points") / rounds,
        "spaces.validate.boundary_share": share(
            sum(tracer.at_boundary(i) for i in validations), len(validations)),
        "spaces.scan.quads": quads / rounds,
        "spaces.scan.quads_per_s": share(quads, self_s.get("spaces.scan", 0.0)),
        "spaces.scan.passes": share(quads, sum(subsets.values())),
        "spaces.scan.rss_growth_mb": max((tracer.info[i]["rss_growth"] for i in scans
                                          if "rss_growth" in tracer.info[i]), default=0.0),
        "spaces.crt_deviation.quads": count("spaces.crt_deviation", "quads") / rounds,
        "glued.seam.calls": len(seams) / rounds,
        "glued.seam.distinct_share": share(len(crossings), len(seams)),
        "glued.gromov.calls": len(spans.get("glued.gromov", [])) / rounds,
    })
    return metrics, self_s
