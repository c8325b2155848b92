"""Command-line surface: check, invert, segment, circle, map, sphere, exotic.

All structured output is JSON with sorted keys; curve sample series go to
CSV for external plotting.  Exit codes: 0 when the command succeeds and any
checked property holds, 2 when a property fails with a witness, 1 for
usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import circles, glued, inversions, segments, spaces, spheres
from .errors import NotPtolemyError, ValidationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROPERTY = 2


def _emit(data, path: str | None) -> None:
    """Write a report dict as JSON, or the text chunks of a distance matrix."""
    if isinstance(data, dict):
        data = [json.dumps(data, indent=2, sort_keys=True) + "\n"]
    if path is None:
        sys.stdout.writelines(data)
    else:
        with open(path, "w") as fh:
            fh.writelines(data)


def _load_space(path: str, eps: float) -> spaces.ExtendedMetricSpace:
    return spaces.space_from_json_dict(spaces._read_json(path), eps=eps)


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    rows = zip(*columns)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def cmd_check(args) -> int:
    space = _load_space(args.matrix, args.eps)
    report = spaces.is_ptolemy(space)
    embedding = None
    if space.omega is None:
        coords = spaces.line_embed(space)
        embedding = {
            "embeddable": coords is not None,
            "coordinates": None if coords is None else [float(c) for c in coords],
        }
    _emit(
        {
            "ptolemy": report.holds,
            "worst_quadruple": list(report.worst_quad) if report.worst_quad else None,
            "worst_margin": report.worst_margin,
            "n_quadruples": report.n_checked,
            "circle_quadruples": {"boundary": report.n_boundary, "total": report.n_checked},
            "line_embedding": embedding,
        },
        args.output,
    )
    return EXIT_OK if report.holds else EXIT_PROPERTY


def cmd_invert(args) -> int:
    if args.at is None and args.bound_at is None:
        raise ValidationError("provide --at and/or --bound-at")
    space = _load_space(args.matrix, args.eps)
    out = space
    if args.at is not None:
        out = inversions.invert_at(out, args.at)
    if args.bound_at is not None:
        out = inversions.bound_at(out, args.bound_at)
    _emit(spaces.space_to_json_chunks(out), args.output)
    if space.n >= 4:
        corr = inversions.PointedCorrespondence.identity(space, out)
        report = inversions.crt_equivalent(corr, eps=max(args.eps, 1e-9))
        if not report.equivalent:
            print(
                f"crt self-check failed: deviation {report.max_deviation:.3e} "
                f"at {report.witness}",
                file=sys.stderr,
            )
            return EXIT_PROPERTY
    return EXIT_OK


def _order_list(arg: str | None) -> list[str] | None:
    return None if arg is None else [s.strip() for s in arg.split(",")]


def cmd_segment(args) -> int:
    if args.action == "classify":
        with spaces._triangle_deferred():  # the recovered curve may prove the input a metric
            space = _load_space(args.input, args.eps)
            curve = segments.curve_from_segment(space, _order_list(args.order))
        if args.csv:
            _write_csv(args.csv, ["t", "a", "b", "alpha"],
                       [curve.params, *curve.samples.T, segments.angle_parameterize(curve)])
        _emit(segments.curve_to_json_dict(curve), args.output)
        return EXIT_OK
    curve = segments.curve_from_json_dict(spaces._read_json(args.input), eps=args.eps)
    _emit(spaces.space_to_json_chunks(segments.segment_from_curve(curve)), args.output)
    return EXIT_OK


def cmd_circle(args) -> int:
    if args.action == "classify":
        with spaces._triangle_deferred():
            space = _load_space(args.input, args.eps)
            curve = circles.curve_from_circle(space, _order_list(args.order),
                                              minus_one=args.minus_one)
        if args.csv:
            _write_csv(args.csv, ["t", "a", "b"],
                       [curve.params, curve.samples[:, 0], curve.samples[:, 1]])
        _emit(circles.curve_to_json_dict(curve), args.output)
        return EXIT_OK
    curve = circles.curve_from_json_dict(spaces._read_json(args.input), eps=args.eps)
    _emit(spaces.space_to_json_chunks(circles.circle_from_curve(curve)), args.output)
    return EXIT_OK


def cmd_map(args) -> int:
    build = segments.segment_moebius_map if args.kind == "segment" else circles.circle_moebius_map
    with spaces._triangle_deferred():  # both curves may prove their inputs metrics
        src = _load_space(args.src, args.eps)
        dst = _load_space(args.dst, args.eps)
        result = build(src, _order_list(args.src_anchors), dst, _order_list(args.dst_anchors))
    pairs = [
        {"src": lab, "position": float(pos), "point": [float(p[0]), float(p[1])]}
        for lab, pos, p in zip(result.src_labels, result.dst_params, result.dst_points)
    ]
    _emit(
        {
            "kind": args.kind,
            "pairs": pairs,
            "max_crt_deviation": None if result.max_crt_deviation is None
            else float(result.max_crt_deviation),
        },
        args.output,
    )
    return EXIT_OK


def cmd_sphere(args) -> int:
    space = spheres.sample_space(args.kind, n=args.n, count=args.count, seed=args.seed,
                                 eps=args.eps)
    report = spaces.is_ptolemy(space)
    if args.matrix_out:
        _emit(spaces.space_to_json_chunks(space), args.matrix_out)
    _emit(
        {
            "kind": args.kind,
            "n": args.n,
            "count": args.count,
            "seed": args.seed,
            "ptolemy": report.holds,
            "worst_quadruple": list(report.worst_quad) if report.worst_quad else None,
            "worst_margin": report.worst_margin,
        },
        args.output,
    )
    return EXIT_OK if report.holds else EXIT_PROPERTY


def cmd_exotic(args) -> int:
    cfg = glued.GluedSpaceConfig(ell=args.l)
    angles = tuple(k * 2.0 * np.pi / args.angles for k in range(args.angles))
    report = glued.exotic_report(cfg, angles)
    _emit(report.to_json_dict(), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moebiusgeo",
        description="Metric Moebius geometry: Ptolemy checks, inversions, "
                    "segment and circle classification, sphere and glued-space demos.",
    )
    parser.add_argument("--eps", type=float, default=spaces.DEFAULT_EPS,
                        help="classification tolerance (default 1e-9)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="Ptolemy scan of a distance-matrix JSON file")
    p.add_argument("matrix")
    p.add_argument("--output")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("invert", help="invert and/or bound a metric at a point")
    p.add_argument("matrix")
    p.add_argument("--at", help="label of the inversion point")
    p.add_argument("--bound-at", help="label of the bounded-metric base point")
    p.add_argument("--output")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("segment", help="classify a segment metric or synthesize one")
    p.add_argument("action", choices=["classify", "synth"])
    p.add_argument("input")
    p.add_argument("--order", help="comma-separated point order (classify)")
    p.add_argument("--csv", help="write (t, a, b, alpha) samples (classify)")
    p.add_argument("--output")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("circle", help="classify a circle metric or synthesize one")
    p.add_argument("action", choices=["classify", "synth"])
    p.add_argument("input")
    p.add_argument("--order", help="comma-separated cyclic order (classify)")
    p.add_argument("--minus-one", help="label of the second base point (classify)")
    p.add_argument("--csv", help="write (t, a, b) samples (classify)")
    p.add_argument("--output")
    p.set_defaults(func=cmd_circle)

    p = sub.add_parser("map", help="Moebius map between two segments or circles")
    p.add_argument("kind", choices=["segment", "circle"])
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--src-anchors", required=True, help="three comma-separated labels")
    p.add_argument("--dst-anchors", required=True, help="three comma-separated labels")
    p.add_argument("--output")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("sphere", help="seeded sample space with a Ptolemy report")
    p.add_argument("--kind", choices=list(spheres.SAMPLE_KINDS), default="sphere")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--count", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--matrix-out", help="also write the distance-matrix JSON here")
    p.add_argument("--output")
    p.set_defaults(func=cmd_sphere)

    p = sub.add_parser("exotic", help="glued-space boundary metrics report")
    p.add_argument("--l", type=float, required=True, help="distance between the base points")
    p.add_argument("--angles", type=int, default=6, help="number of equator samples")
    p.add_argument("--output")
    p.set_defaults(func=cmd_exotic)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, the code of a failed property
        raise SystemExit(EXIT_USAGE if exc.code == 2 else exc.code) from None
    try:
        return args.func(args)
    except NotPtolemyError as exc:
        print(f"property failed: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except (ValidationError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
