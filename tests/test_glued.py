"""Glued hyperbolic space: distances, Gromov products, boundary metrics."""

import json
import math
import sys
import time

import numpy as np
import pytest

import moebiusgeo as mg
from moebiusgeo.errors import ValidationError
from moebiusgeo.glued import BoundaryPoint as BP

from helpers import base_point, gamma_point, glued_distance, ray_point


CFG = mg.GluedSpaceConfig(ell=1.0)


class TestConfig:
    def test_positive_separation_required(self):
        with pytest.raises(ValidationError):
            mg.GluedSpaceConfig(ell=0.0)
        with pytest.raises(ValidationError):
            mg.GluedSpaceConfig(ell=-1.0)

    def test_non_finite_rejected(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValidationError):
                mg.GluedSpaceConfig(ell=bad)

    def test_overflow_bound(self):
        # cosh ell must be finite: at acosh(DBL_MAX) the report works and
        # still certifies its metrics, one ulp above it is refused
        bound = math.acosh(sys.float_info.max)
        angles = [k * math.pi / 24.0 for k in range(48)]
        rep = mg.exotic_report(mg.GluedSpaceConfig(ell=bound), angles)
        assert rep.max_crt_deviation <= 1e-12
        assert abs(rep.equator_ratio / math.exp(-bound) - 1.0) <= 1e-12
        assert abs(rep.ns_ratio * math.cosh(bound) - 1.0) <= 1e-12
        with pytest.raises(ValidationError):
            mg.GluedSpaceConfig(ell=math.nextafter(bound, math.inf))

    def test_base_points(self):
        assert base_point(mg.GluedSpaceConfig(ell=2.0), "o") == ("H2", (0.0, 0.0))
        assert base_point(mg.GluedSpaceConfig(ell=2.0), "oprime") == ("H2", (2.0, 0.0))


class TestDistances:
    def test_halfplane_right_triangle(self):
        # d(o', gamma(t)) = arccosh(cosh(ell) cosh(t)), the hyperbolic
        # right-triangle relation with the foot of o' at o
        for t in (0.3, 1.0, 5.0, 15.0):
            d = glued_distance(CFG, mg.halfplane_point(1.0, 0.0), gamma_point(t))
            assert abs(d - math.acosh(math.cosh(1.0) * math.cosh(t))) <= 1e-12 * (1 + t)

    def test_base_separation(self):
        assert np.isclose(
            glued_distance(CFG, base_point(CFG, "o"), base_point(CFG, "oprime")), 1.0)

    def test_bulk_cone_angle_formula(self):
        # equator rays at angle delta: cosh d = cosh^2 t - sinh^2 t cos(delta)
        t, delta = 2.0, 1.3
        x = ray_point(BP.equator(0.0), t)
        y = ray_point(BP.equator(delta), t)
        d = glued_distance(CFG, x, y)
        expect = math.acosh(math.cosh(t) ** 2 - math.sinh(t) ** 2 * math.cos(delta))
        assert abs(d - expect) <= 1e-12

    def test_seam_crossing_through_o(self):
        # a ray from o' to an equator point passes through o: d = ell + s
        for s in (0.5, 2.0, 8.0):
            y = ray_point(BP.equator(1.1), s)
            d = glued_distance(CFG, mg.halfplane_point(1.0, 0.0), y)
            assert abs(d - (1.0 + s)) <= 1e-9
            tau, _ = mg.seam_minimizer(CFG, mg.halfplane_point(1.0, 0.0), y)
            assert abs(tau) <= 1e-9

    def test_seam_crossing_asymmetric_matches_scan(self):
        x = mg.halfplane_point(0.7, 1.3)
        y = ray_point(BP.equator(0.3), 4.0)
        tau, d = mg.seam_minimizer(CFG, x, y)

        def objective(t):
            return (glued_distance(CFG, x, gamma_point(t))
                    + glued_distance(CFG, gamma_point(t), y))

        ts = np.linspace(tau - 0.01, tau + 0.01, 2001)
        vals = np.array([objective(t) for t in ts])
        assert d <= vals.min() + 1e-12
        assert abs(ts[int(np.argmin(vals))] - tau) <= 2e-5

    def test_seam_crossing_property(self):
        # random halfplane points against random bulk points, a quarter of
        # them within sinh r ~ 1e-3 of the seam and a few on the seam or
        # with x on the seam; the oracle is a dense scan of the objective,
        # each leg in Fermi coordinates as 2 asinh(sqrt(sinh^2(a/2) cosh b
        # + sinh^2(b/2))), which keeps full precision near the seam
        rng = np.random.default_rng(20261018)

        def leg(off, along):
            return 2.0 * np.arcsinh(np.sqrt(np.sinh(off / 2.0) ** 2 * np.cosh(along)
                                            + np.sinh(along / 2.0) ** 2))

        for k in range(240):
            rho = 0.0 if k % 40 == 0 else rng.uniform(0.0, 5.0)
            tau0 = rng.uniform(-5.0, 5.0)
            tau1, theta = rng.uniform(-5.0, 5.0), rng.uniform(0.0, 2.0 * math.pi)
            if k % 40 == 1:
                r = 0.0
            elif k % 4 == 3:
                r = math.asinh(1e-3 * rng.uniform(0.5, 1.5))
            else:
                r = rng.uniform(0.0, 5.0)
            x = mg.halfplane_point(rho, tau0)
            y = mg.bulk_point([math.cosh(r) * math.sinh(tau1), math.sinh(r) * math.cos(theta),
                               math.sinh(r) * math.sin(theta), math.cosh(r) * math.cosh(tau1)])
            tau, d = mg.seam_minimizer(CFG, x, y)
            assert mg.seam_minimizer(CFG, y, x) == (tau, d)
            # the crossing's distance is the interior model's, bit for bit
            assert d == glued_distance(CFG, x, y)

            def objective(ts):
                return leg(rho, ts - tau0) + leg(r, ts - tau1)

            coarse = np.linspace(min(tau0, tau1) - 0.5, max(tau0, tau1) + 0.5, 12001)
            t0 = coarse[np.argmin(objective(coarse))]
            step = coarse[1] - coarse[0]
            fine = np.linspace(t0 - 2.0 * step, t0 + 2.0 * step, 4001)
            vals = objective(fine)
            assert d <= vals.min() + 1e-12
            # the scan resolves tau* to the grid points it cannot tell
            # apart from its minimum by more than rounding, plus one step
            flat = fine[vals <= vals.min() * (1.0 + 16.0 * np.finfo(float).eps)]
            h = fine[1] - fine[0]
            assert flat.min() - h <= tau <= flat.max() + h

    def test_gamma_point_reachable_from_both_sides(self):
        y = ray_point(BP.equator(0.2), 1.0)
        d1 = glued_distance(CFG, gamma_point(0.5), y)
        d2 = glued_distance(CFG, ("H3", np.array([math.sinh(0.5), 0, 0, math.cosh(0.5)])), y)
        assert abs(d1 - d2) <= 1e-12

    @pytest.mark.parametrize("tau", [-5.0, 0.0, 5.0])
    def test_bulk_point_near_the_seam_far_along_it(self, tau):
        # a bulk point 1e-3 from the seam with foot gamma(tau)
        r = 1e-3
        y = mg.bulk_point([math.cosh(r) * math.sinh(tau), math.sinh(r), 0.0,
                           math.cosh(r) * math.cosh(tau)])
        assert abs(glued_distance(CFG, gamma_point(tau), y) - r) <= 1e-12

    def test_bulk_point_validation(self):
        with pytest.raises(ValidationError):
            mg.bulk_point([1.0, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("vec, message", [
        pytest.param([math.nan, 0.0, 0.0, math.nan], "bulk point must be finite", id="nan"),
        pytest.param([0.0, 0.0, 0.0, math.inf], "bulk point must be finite", id="inf"),
        pytest.param([1e200, 0.0, 0.0, 1e300], "vector does not lie on the upper hyperboloid sheet",
                     id="squares-overflow"),
        pytest.param([0.0, 0.0, 0.0, 1e-300], "vector does not lie on the upper hyperboloid sheet",
                     id="tiny"),
    ])
    def test_bulk_point_refused_at_every_scale(self, vec, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            mg.bulk_point(vec)

    def test_bulk_point_far_out_on_the_sheet(self):
        # sinh^2 400 overflows, so the hyperboloid form is decided at unit scale
        v = [0.0, math.sinh(400.0), 0.0, math.cosh(400.0)]
        assert mg.bulk_point(v)[1].tolist() == v

    def test_point_refusals(self):
        with pytest.raises(ValidationError, match="rho must be nonnegative"):
            mg.halfplane_point(-1.0, 0.0)
        for rho in (math.nan, math.inf):
            message = f"^rho must be nonnegative and finite, not {rho}$"
            with pytest.raises(ValidationError, match=message):
                mg.halfplane_point(rho, 0.0)
        for tau in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match=f"^tau must be finite, not {tau}$"):
                mg.halfplane_point(1.0, tau)
        with pytest.raises(ValidationError, match="bulk points are hyperboloid 4-vectors"):
            mg.bulk_point([0.0, 0.0, 1.0])

    @pytest.mark.parametrize("vec, message", [
        pytest.param(["a", 0, 0, 1], "bulk point must hold numbers, not strings", id="letters"),
        pytest.param([False, False, False, True], "bulk point must hold numbers, not booleans",
                     id="booleans"),
    ])
    def test_bulk_point_cells_are_numbers(self, vec, message):
        with pytest.raises(ValidationError, match=message):
            mg.bulk_point(vec)

    def test_seam_minimizer_needs_a_halfplane_and_a_bulk_point(self):
        for x, y in [(mg.halfplane_point(1.0, 0.0), mg.halfplane_point(2.0, 0.5)),
                     (mg.bulk_point([0.0, 0.0, 0.0, 1.0]), mg.bulk_point([0.0, 0.0, 0.0, 1.0]))]:
            with pytest.raises(ValueError, match="seam crossings join a halfplane point"):
                mg.seam_minimizer(CFG, x, y)


class TestGromovProducts:
    def test_seam_endpoints_at_o(self):
        assert abs(mg.gromov_product(CFG, "o", BP.north(), BP.south())) <= 1e-12

    def test_seam_endpoints_at_oprime(self):
        # oracle: lim [2 arccosh(cosh l cosh t) - 2t] / 2 = ln cosh l
        for ell in (0.5, 1.0, 2.0):
            cfg = mg.GluedSpaceConfig(ell=ell)
            g = mg.gromov_product(cfg, "oprime", BP.north(), BP.south())
            assert abs(g - math.log(math.cosh(ell))) <= 1e-6

    def test_seam_to_equator_at_oprime(self):
        # oracle from the asymptotics: (1/2) ln(e^{2l} + 1)
        for ell in (0.5, 1.0, 2.0):
            cfg = mg.GluedSpaceConfig(ell=ell)
            g = mg.gromov_product(cfg, "oprime", BP.north(), BP.equator(0.7))
            assert abs(g - 0.5 * math.log(math.exp(2 * ell) + 1.0)) <= 1e-6

    def test_equator_pair_at_o(self):
        # cone-angle oracle: -ln sin(delta / 2)
        for delta in (0.4, 1.0, 2.9):
            g = mg.gromov_product(CFG, "o", BP.equator(0.0), BP.equator(delta))
            assert abs(g + math.log(math.sin(delta / 2.0))) <= 1e-9

    def test_halfplane_ray_pair_at_o(self):
        # the halfplane is intrinsically hyperbolic: same cone-angle oracle
        g = mg.gromov_product(CFG, "o", BP.halfplane_ray(0.5), BP.halfplane_ray(1.7))
        assert abs(g + math.log(math.sin(0.6))) <= 1e-9

    def test_north_to_halfplane_ray_at_o(self):
        g = mg.gromov_product(CFG, "o", BP.north(), BP.halfplane_ray(1.0))
        assert abs(g + math.log(math.sin(0.5))) <= 1e-9

    def test_equator_to_halfplane_ray_at_o(self):
        # unfolding the two planes along the seam puts the rays at angle
        # pi/2 + min(phi, pi - phi) in a single hyperbolic plane, so the
        # cone-angle oracle applies with that angle (capped at pi)
        for phi in (0.4, math.pi / 2, 2.5):
            alpha = min(math.pi, math.pi / 2 + min(phi, math.pi - phi))
            g = mg.gromov_product(CFG, "o", BP.equator(1.1), BP.halfplane_ray(phi))
            assert abs(g + math.log(math.sin(alpha / 2.0))) <= 1e-9

    @pytest.mark.parametrize("base, value", [("o", 0.5715625385833434),
                                             ("oprime", 0.07442659565818133)])
    def test_halfplane_ray_pair_reference(self, base, value):
        # values of the per-pair truncated-ray limit before it was vectorized
        g = mg.gromov_product(CFG, base, BP.halfplane_ray(0.5), BP.halfplane_ray(1.7))
        assert abs(g - value) <= 1e-13

    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
    def test_matches_truncated_ray_limit(self, ell):
        # reference: (d(b, x_t) + d(b, y_t) - d(x_t, y_t)) / 2 along the
        # canonical rays at t = 20 and 40, extrapolated linearly in exp(-2t)
        cfg = mg.GluedSpaceConfig(ell=ell)
        points = [BP.north(), BP.south(), BP.equator(0.3), BP.equator(2.0),
                  BP.equator(4.0), BP.halfplane_ray(0.2), BP.halfplane_ray(math.pi / 2),
                  BP.halfplane_ray(2.9)]

        def product(b, xi, eta, t):
            x, y = ray_point(xi, t), ray_point(eta, t)
            return 0.5 * (glued_distance(cfg, b, x) + glued_distance(cfg, b, y)
                          - glued_distance(cfg, x, y))

        e1, e2 = math.exp(-40.0), math.exp(-80.0)
        for base in ("o", "oprime"):
            b = base_point(cfg, base)
            for a, xi in enumerate(points):
                for eta in points[a + 1:]:
                    g1, g2 = product(b, xi, eta, 20.0), product(b, xi, eta, 40.0)
                    ref = math.exp(-(g2 - (g1 - g2) / (e1 - e2) * e2))
                    rho = mg.bourdon_metric(cfg, base, xi, eta)
                    assert abs(rho / ref - 1.0) <= 1e-12, (base, xi, eta)
                    assert abs(mg.gromov_product(cfg, base, xi, eta) + math.log(rho)) <= 1e-12

    @pytest.mark.parametrize("ell", [14.0, 20.0])
    def test_ray_through_oprime(self, ell):
        # o' lies on the geodesic from the ray at pi/2 to an equator point,
        # so the product is 0 however far o' is from o
        g = mg.gromov_product(mg.GluedSpaceConfig(ell=ell), "oprime",
                              BP.halfplane_ray(math.pi / 2), BP.equator(0.3))
        assert abs(g) <= 1e-12

    def test_unknown_base_rejected(self):
        # one check on the base's name serves both functions; o' has two spellings
        pair = (BP.north(), BP.equator(0.7))
        for function in (mg.gromov_product, mg.bourdon_metric):
            with pytest.raises(ValueError, match="base must be 'o' or 'oprime'"):
                function(CFG, "p", *pair)
            assert function(CFG, "o'", *pair) == function(CFG, "oprime", *pair)
            assert function(CFG, "o'", *pair) != function(CFG, "o", *pair)

    def test_equal_points_rejected(self):
        with pytest.raises(ValueError):
            mg.gromov_product(CFG, "o", BP.north(), BP.north())

    def test_tiny_negative_equator_angle_is_zero(self):
        # -1e-300 % 2pi rounds to exactly 2pi, the same point as angle 0
        assert BP.equator(-1e-300) == BP.equator(0.0)
        assert BP.equator(-1e-300).angle == 0.0
        with pytest.raises(ValueError, match="two distinct boundary points"):
            mg.gromov_product(CFG, "o", BP.equator(0.0), BP.equator(-1e-300))
        with pytest.raises(ValueError, match="two distinct boundary points"):
            mg.exotic_report(CFG, [0.0, -1e-300, 1.0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown boundary kind 'west'"):
            BP("west")

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_equator_angle_rejected(self, angle):
        with pytest.raises(ValidationError, match="equator angle must be finite"):
            BP.equator(angle)

    def test_halfplane_angle_range(self):
        with pytest.raises(ValidationError):
            BP.halfplane_ray(0.0)
        with pytest.raises(ValidationError):
            BP.halfplane_ray(math.pi)


class TestBourdonMetric:
    def test_diametral_pair_at_o(self):
        assert abs(mg.bourdon_metric(CFG, "o", BP.north(), BP.south()) - 1.0) <= 1e-12

    def test_equator_is_half_chordal(self):
        # at o the equator carries half the chordal metric: sin(delta/2)
        for delta in (0.3, 1.2, 2.5):
            rho = mg.bourdon_metric(CFG, "o", BP.equator(0.0), BP.equator(delta))
            assert abs(rho - math.sin(delta / 2.0)) <= 1e-9

    def test_north_to_equator_half_chordal(self):
        rho = mg.bourdon_metric(CFG, "o", BP.north(), BP.equator(0.0))
        assert abs(rho - math.sqrt(0.5)) <= 1e-9

    def test_equator_scaling_at_oprime(self):
        for ell in (0.5, 1.0, 2.0):
            cfg = mg.GluedSpaceConfig(ell=ell)
            r0 = mg.bourdon_metric(cfg, "o", BP.equator(0.2), BP.equator(1.5))
            r1 = mg.bourdon_metric(cfg, "oprime", BP.equator(0.2), BP.equator(1.5))
            assert abs(r1 / r0 - math.exp(-ell)) <= 1e-9

    def test_strict_inequality_over_naive_scaling(self):
        for ell in (0.5, 1.0, 2.0):
            cfg = mg.GluedSpaceConfig(ell=ell)
            rho = mg.bourdon_metric(cfg, "oprime", BP.north(), BP.south())
            assert rho > math.exp(-ell)


class TestExoticReport:
    def test_ratios_and_gap_at_one(self):
        rep = mg.exotic_report(CFG)
        assert abs(rep.ns_ratio - 1.0 / math.cosh(1.0)) <= 1e-6
        assert abs(rep.equator_ratio - math.exp(-1.0)) <= 1e-9
        assert rep.equator_ratio_spread <= 1e-9
        assert abs(rep.ratio_gap - abs(1.0 / math.cosh(1.0) - math.exp(-1.0))) <= 1e-5
        assert rep.ratio_gap > 0.28
        assert not rep.homothetic

    def test_crt_equivalence_of_the_two_metrics(self):
        rep = mg.exotic_report(CFG)
        assert rep.max_crt_deviation <= 1e-5

    def test_gap_vanishes_as_bases_merge(self):
        gaps = [mg.exotic_report(mg.GluedSpaceConfig(ell=l)).ratio_gap
                for l in (1.0, 0.3, 0.05)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 0.05

    def test_json_shape(self):
        rep = mg.exotic_report(CFG)
        data = rep.to_json_dict()
        assert set(data) >= {"l", "rho_o", "rho_oprime", "max_crt_dev", "homothety"}
        assert set(data["homothety"]) >= {"NS_ratio", "equator_ratio"}
        m = len(rep.labels)
        assert len(data["rho_o"]) == m and len(data["rho_o"][0]) == m

    @pytest.mark.parametrize("ell", [14.0, 20.0])
    def test_not_homothetic_far_apart(self, ell):
        # the ratios shrink like exp(-ell); NS_ratio stays twice equator_ratio
        rep = mg.exotic_report(mg.GluedSpaceConfig(ell=ell))
        assert abs(rep.ns_ratio / rep.equator_ratio - 2.0) <= 1e-6
        assert rep.homothetic is False

    def test_crt_equivalence_far_apart(self):
        # boundary distances at o' are about exp(-400): their products underflow
        rep = mg.exotic_report(mg.GluedSpaceConfig(ell=400.0))
        assert rep.max_crt_deviation <= 1e-12

    def test_needs_two_angles(self):
        with pytest.raises(ValueError):
            mg.exotic_report(CFG, equator_angles=(0.0,))

    def test_dense_equator_within_budget(self):
        # criterion 9's 2 s budget holds at 360 equator angles
        start = time.process_time()
        rep = mg.exotic_report(CFG, [k * math.pi / 180.0 for k in range(360)])
        assert time.process_time() - start <= 2.0
        assert rep.max_crt_deviation <= 1e-12

    def test_equal_boundary_points_rejected(self):
        with pytest.raises(ValueError):
            mg.exotic_report(CFG, equator_angles=(0.0, 2.0 * math.pi))

    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
    def test_conformal_factor_identities(self, ell):
        # rho_o'(x, y) = lambda(x) lambda(y) rho_o(x, y): lambda(N) lambda(S)
        # is NS_ratio = 1/cosh l and lambda(a_k)^2 is equator_ratio = e^-l
        rep = mg.exotic_report(mg.GluedSpaceConfig(ell=ell))
        lam = rep.conformal_factor
        assert abs(lam["N"] * lam["S"] - 1.0 / math.cosh(ell)) <= 1e-9
        for label in rep.labels[2:]:
            assert abs(lam[label] ** 2 - math.exp(-ell)) <= 1e-9

    @pytest.mark.parametrize("angles", [2, 6, 48])
    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.0, 1e-8, 709.0])
    def test_homothety_block_read_off_lambda(self, ell, angles, capsys):
        # every ratio rho_o'/rho_o is lambda(x) lambda(y), and lambda is one
        # float on the equator: the block is lambda's products, bit for bit
        from moebiusgeo.cli import main

        angle_list = [k * 2.0 * np.pi / angles for k in range(angles)]
        rep = mg.exotic_report(mg.GluedSpaceConfig(ell=ell), angle_list)
        lam = rep.conformal_factor
        ns, eq = lam["N"] * lam["S"], lam["a0"] * lam["a0"]
        assert rep.ns_ratio.hex() == ns.hex()
        assert rep.equator_ratio.hex() == eq.hex()
        assert rep.equator_ratio_spread == 0.0
        assert rep.ratio_gap.hex() == (ns - eq).hex()
        assert rep.homothetic == (ns - eq <= 1e-6 * ns)
        assert main(["exotic", "--l", repr(ell), "--angles", str(angles)]) == 0
        assert json.loads(capsys.readouterr().out)["homothety"] == {
            "NS_ratio": rep.ns_ratio, "equator_ratio": rep.equator_ratio,
            "equator_ratio_spread": 0.0, "gap": rep.ratio_gap, "homothetic": rep.homothetic}

    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
    def test_matrices_match_pairwise_metric(self, ell):
        cfg = mg.GluedSpaceConfig(ell=ell)
        angles = [k * math.pi / 24.0 for k in range(48)]
        rep = mg.exotic_report(cfg, angles)
        points = [BP.north(), BP.south()] + [BP.equator(a) for a in angles]
        i, j = np.triu_indices(len(points), 1)
        for base, rho in (("o", rep.rho_o), ("oprime", rep.rho_oprime)):
            pair = np.array([mg.bourdon_metric(cfg, base, points[a], points[b])
                             for a, b in zip(i, j)])
            assert np.all(np.abs(rho[i, j] - pair) <= 1e-13 * pair)
            assert np.array_equal(rho, rho.T) and not np.diag(rho).any()


class TestProvenBoundaryMetrics:
    """exotic_report builds both boundary metrics as derived spaces, whose
    rounding bound proves their triangle pass."""

    @pytest.mark.parametrize("angles", [6, 48, 360])
    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
    def test_no_pass_and_constructor_bits(self, ell, angles, monkeypatch, capsys):
        from moebiusgeo import spaces
        from moebiusgeo.cli import main

        argv = ["exotic", "--l", repr(ell), "--angles", str(angles)]
        built = []
        derived = vars(mg.ExtendedMetricSpace)["_derived"].__func__

        def record(cls, *args, **kwargs):
            built.append(derived(cls, *args, **kwargs))
            return built[-1]

        def forbidden(*args):
            raise AssertionError("the triangle pass ran")

        with monkeypatch.context() as patch:
            patch.setattr(mg.ExtendedMetricSpace, "_derived", classmethod(record))
            patch.setattr(spaces, "_check_triangle", forbidden)
            assert main(argv) == 0
        proven = capsys.readouterr().out
        assert len(built) == 2
        for space in built:
            rebuilt = mg.ExtendedMetricSpace(space.labels, np.array(space.dist))
            assert space.dist.tobytes() == rebuilt.dist.tobytes()
            assert (space.scale.hex(), space.tol.hex()) == (rebuilt.scale.hex(), rebuilt.tol.hex())
            assert space.omega is None and space._triangle is None

        # the same command with both spaces built and checked by the constructor
        monkeypatch.setattr(mg.ExtendedMetricSpace, "_derived", classmethod(
            lambda cls, labels, dist, omega, eps, positions=None, bound=None:
            cls(labels, dist, omega, eps)))
        assert main(argv) == 0
        assert capsys.readouterr().out == proven
