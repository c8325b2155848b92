"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import math
import time

import numpy as np

import moebiusgeo as mg
from moebiusgeo.glued import BoundaryPoint as BP

from helpers import (brute_force_line_embedding, ordered_quads, ptolemy_equality_residuals,
                     random_quadrant_curve)


def report(num, description, ok):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_ptolemy_corpora():
    start = time.time()
    kinds = [("euclidean", 2), ("euclidean", 3), ("euclidean", 4),
             ("sphere", 2), ("hemisphere", 2)]
    all_hold = True
    seed = 0
    for kind, n in kinds:
        for _ in range(200):
            count = 4 + seed % 9
            sp = mg.sample_space(kind, n=n, count=count, seed=seed)
            all_hold &= mg.is_ptolemy(sp).holds
            seed += 1
    controls_fail = all(
        not mg.is_ptolemy(mg.sample_space("l1", n=2, count=8, seed=s)).holds
        for s in range(50)
    )
    elapsed = time.time() - start
    report(1, f"1000 Euclidean/spherical corpora Ptolemy, 50 l1 controls fail "
              f"({elapsed:.1f}s <= 10s)",
           all_hold and controls_fail and elapsed <= 10.0)


def test_criterion_02_circle_equality():
    rng = np.random.default_rng(202)
    quads = ordered_quads(24)
    worst = 0.0
    for trial in range(100):
        dim = 2 if trial % 2 == 0 else 3
        pts = rng.normal(size=(3, dim))
        circle = mg.circumcircle_three(*pts, n_samples=24)
        space = circle.space()
        worst = max(worst, float(ptolemy_equality_residuals(space.dist, quads).max()))
    report(2, f"100 circumcircles, 24-sample cyclic quadruple equality "
              f"(worst {worst:.2e} <= 1e-9)", worst <= 1e-9)


def _random_ptolemy_space(rng, with_omega):
    count = int(rng.integers(5, 10))
    if rng.integers(0, 2) == 0:
        pts = rng.normal(size=(count, 3))
    else:
        pts = rng.normal(size=(count, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
    return mg.space_from_points(pts, add_omega=with_omega)


def test_criterion_03_inversion_suite():
    rng = np.random.default_rng(303)
    worst_double = 0.0
    worst_crt = 0.0
    for _ in range(100):
        sp = _random_ptolemy_space(rng, with_omega=True)
        z = sp.labels[int(rng.integers(0, sp.n - 1))]
        inv = mg.invert_at(sp, z)
        back = mg.invert_at(inv, "omega")
        finite = np.isfinite(sp.dist) & (sp.dist > 0)
        worst_double = max(worst_double, float(
            (np.abs(back.dist[finite] - sp.dist[finite]) / sp.dist[finite]).max()))
        rep_inv = mg.crt_equivalent(mg.PointedCorrespondence.identity(sp, inv))
        bnd = mg.bound_at(sp, sp.labels[0])
        rep_bnd = mg.crt_equivalent(mg.PointedCorrespondence.identity(sp, bnd))
        worst_crt = max(worst_crt, rep_inv.max_deviation, rep_bnd.max_deviation)
    report(3, f"double inversion {worst_double:.2e} <= 1e-12, crt invariance "
              f"{worst_crt:.2e} <= 1e-9 over 100 spaces",
           worst_double <= 1e-12 and worst_crt <= 1e-9)


def test_criterion_04_quadratic_identity():
    rng = np.random.default_rng(404)
    p = rng.uniform(-10.0, 10.0, size=(4, 100_000, 2))
    res = mg.ptolemy_identity_residual(p[0], p[1], p[2], p[3])
    terms = np.stack([
        mg.signed_distance(p[0], p[1]) * mg.signed_distance(p[2], p[3]),
        mg.signed_distance(p[1], p[2]) * mg.signed_distance(p[0], p[3]),
        mg.signed_distance(p[0], p[2]) * mg.signed_distance(p[1], p[3]),
    ])
    scale = np.maximum(np.abs(terms).max(axis=0), 1e-30)
    worst = float((np.abs(res) / scale).max())
    report(4, f"10^5 4-tuples, product identity residual {worst:.2e} <= 1e-9",
           worst <= 1e-9)


def test_criterion_05_segment_roundtrips():
    t = np.linspace(0.0, 1.0, 33)
    named = [
        mg.QuadrantCurve(1.0, np.column_stack([1.0 - t, t])),
        mg.QuadrantCurve(1.0, np.column_stack([np.cos(np.pi * t / 2),
                                               np.sin(np.pi * t / 2)])),
        mg.euclidean_segment_curve(1.0, 1.0, "minor", 33),
        mg.euclidean_segment_curve(1.0, 1.0, "major", 33),
    ]
    rng = np.random.default_rng(505)
    curves = named + [random_quadrant_curve(rng, R=1.0 + rng.uniform(0, 2), per_edge=1)
                      for _ in range(50)]
    worst_round = 0.0
    worst_eq = 0.0
    for curve in curves:
        space = mg.segment_from_curve(curve)
        back = mg.curve_from_segment(space)
        worst_round = max(worst_round, float(
            np.abs(back.samples - curve.samples).max() / curve.R))
        res = ptolemy_equality_residuals(space.dist, ordered_quads(space.n))
        worst_eq = max(worst_eq, float(res.max()))
    report(5, f"54 segment roundtrips {worst_round:.2e} <= 1e-12, ordered "
              f"equality {worst_eq:.2e} <= 1e-9",
           worst_round <= 1e-12 and worst_eq <= 1e-9)


def test_criterion_06_ellipse_family():
    worst = 0.0
    for R, r in [(1.0, 0.5), (1.0, 1.0), (2.0, 1.0), (1.0, 3.0)]:
        for branch in ("minor", "major"):
            curve = mg.euclidean_segment_curve(R, r, branch, 65)
            cb = mg.ellipse_cos_beta(R, r, branch)
            a, b = curve.samples[:, 0], curve.samples[:, 1]
            resid = np.abs(a ** 2 + b ** 2 - 2.0 * a * b * cb - R ** 2)
            worst = max(worst, float(resid.max()))
    report(6, f"arc images on the law-of-cosines ellipse, residual "
              f"{worst:.2e} <= 1e-9", worst <= 1e-9)


def test_criterion_07_chordal_circle_pin():
    curve = mg.chordal_circle_curve(2.0, 48)
    space = mg.circle_from_curve(curve)
    t = curve.params[:-1]
    expect = 2.0 * np.abs(np.sin(np.pi * (t[:, None] - t[None, :]) / 2.0))
    worst = float(np.abs(space.dist - expect).max())
    report(7, f"chordal circle distances match 2 sin(pi dt / 2) "
              f"({worst:.2e} <= 1e-12)", worst <= 1e-12)


def test_criterion_08_moebius_maps():
    t = np.linspace(0.0, 1.0, 21)
    straight = mg.segment_from_curve(mg.QuadrantCurve(1.0, np.column_stack([1 - t, t])))
    td = np.linspace(0.0, 1.0, 2049)
    halfcircle_dense = mg.segment_from_curve(
        mg.QuadrantCurve(1.0, np.column_stack([np.cos(np.pi * td / 2),
                                               np.sin(np.pi * td / 2)])))
    halfcircle = mg.segment_from_curve(
        mg.QuadrantCurve(1.0, np.column_stack([np.cos(np.pi * t / 2),
                                               np.sin(np.pi * t / 2)])))
    straight_dense = mg.segment_from_curve(
        mg.QuadrantCurve(1.0, np.column_stack([1 - td, td])))

    self_seg = mg.segment_moebius_map(straight, ("t0", "t10", "t20"),
                                      straight, ("t0", "t10", "t20"))
    identity_seg = float(np.abs(self_seg.dst_params - t).max())

    fwd = mg.segment_moebius_map(straight, ("t0", "t10", "t20"),
                                 halfcircle_dense, ("t0", "t1024", "t2048"))
    rev = mg.segment_moebius_map(halfcircle, ("t0", "t10", "t20"),
                                 straight_dense, ("t0", "t1024", "t2048"))

    s1 = mg.circle_from_curve(mg.chordal_circle_curve(2.0, 36))
    s5 = mg.circle_from_curve(mg.chordal_circle_curve(10.0, 36))
    self_circ = mg.circle_moebius_map(s1, ("t0", "t12", "t24"), s1, ("t0", "t12", "t24"))
    identity_circ = float(np.abs(self_circ.dst_positions - np.arange(36)).max())
    cross_circ = mg.circle_moebius_map(s1, ("t0", "t12", "t24"), s5, ("t0", "t12", "t24"))

    worst_cross = max(fwd.max_crt_deviation, rev.max_crt_deviation,
                      cross_circ.max_crt_deviation)
    ok = (identity_seg <= 1e-12 and identity_circ <= 1e-12
          and self_seg.max_crt_deviation <= 1e-12
          and self_circ.max_crt_deviation <= 1e-12
          and worst_cross <= 1e-6)
    report(8, f"self-maps identity ({max(identity_seg, identity_circ):.2e}), "
              f"cross-map crt deviation {worst_cross:.2e} <= 1e-6", ok)


def test_criterion_09_glued_space():
    start = time.time()
    ok = True
    details = []
    for ell in (0.5, 1.0, 2.0):
        cfg = mg.GluedSpaceConfig(ell=ell)
        g = mg.gromov_product(cfg, "oprime", BP.north(), BP.south())
        ns_err = abs(g - math.log(math.cosh(ell)))
        ok &= ns_err <= 1e-6
        rho_ns = mg.bourdon_metric(cfg, "oprime", BP.north(), BP.south())
        ok &= rho_ns > math.exp(-ell)
        rep = mg.exotic_report(cfg)
        scale_err = abs(rep.equator_ratio - math.exp(-ell))
        ok &= scale_err <= 1e-9
        ok &= rep.max_crt_deviation <= 1e-5
        details.append(f"l={ell}: NS err {ns_err:.1e}, scale err {scale_err:.1e}")
    gap = mg.exotic_report(mg.GluedSpaceConfig(ell=1.0)).ratio_gap
    expected_gap = abs(1.0 / math.cosh(1.0) - math.exp(-1.0))
    ok &= abs(gap - expected_gap) <= 1e-5 and abs(gap - 0.280) <= 1e-3
    elapsed = time.time() - start
    ok &= elapsed <= 2.0
    report(9, f"glued-space limits at l in (0.5, 1, 2); gap {gap:.4f} ~ 0.280 "
              f"({elapsed:.2f}s <= 2s)", ok)


def test_criterion_10_line_embedding():
    rng = np.random.default_rng(1010)
    census_ok = True
    for seed in range(20):
        sp = mg.sample_space("line", 1, 8, seed=seed)
        boundary, total = mg.circle_quadruple_census(sp)
        census_ok &= boundary == total > 0
    agree = True
    for case in range(200):
        count = int(rng.integers(3, 8))
        if case % 2 == 0:
            pts = rng.normal(size=(count, 1)) * 2.0
        else:
            pts = rng.normal(size=(count, 2))
        sp = mg.space_from_points(pts)
        embedded = mg.line_embed(sp)
        success = embedded is not None
        agree &= success == (brute_force_line_embedding(sp.dist, sp.tol) is not None)
        if success:
            gaps = np.abs(np.abs(embedded[:, None] - embedded[None, :]) - sp.dist)
            agree &= gaps.max() <= 1e-9 * max(1.0, sp.scale)
    report(10, "line+omega all circle quadruples; embedding succeeds exactly "
               "on collinear spaces (200 cases)", census_ok and agree)
