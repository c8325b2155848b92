"""Command-line interface: exit codes, file formats, determinism."""

import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moebiusgeo as mg
from moebiusgeo import cli, inversions, spaces
from moebiusgeo.cli import main
from moebiusgeo.errors import NotPtolemyError, ValidationError

from helpers import csv_bytes, noisy_line, per_cell


@pytest.fixture()
def sphere_file(tmp_path):
    sp = mg.sample_space("sphere", n=2, count=8, seed=3)
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(mg.space_to_json_dict(sp)))
    return str(path)


@pytest.fixture()
def l1_file(tmp_path):
    sp = mg.sample_space("l1", n=2, count=6, seed=3)
    path = tmp_path / "l1.json"
    path.write_text(json.dumps(mg.space_to_json_dict(sp)))
    return str(path)


@pytest.fixture()
def line_file(tmp_path):
    sp = mg.space_from_points(np.array([0.0, 1.0, 2.0])[:, None], add_omega=True)
    path = tmp_path / "line.json"
    path.write_text(json.dumps(mg.space_to_json_dict(sp)))
    return str(path)


class TestCheck:
    def test_ptolemy_space_exit_zero(self, sphere_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["check", sphere_file, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["ptolemy"] is True
        assert report["line_embedding"]["embeddable"] is False

    def test_violation_exit_two_with_witness(self, l1_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["check", l1_file, "--output", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["ptolemy"] is False
        assert len(report["worst_quadruple"]) == 4

    def test_malformed_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"truncated": ')
        assert main(["check", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_line_embedding_reported(self, tmp_path):
        sp = mg.space_from_points(np.array([0.0, 1.0, 3.0])[:, None])
        src = tmp_path / "line3.json"
        src.write_text(json.dumps(mg.space_to_json_dict(sp)))
        out = tmp_path / "report.json"
        assert main(["check", str(src), "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["line_embedding"]["embeddable"] is True
        coords = report["line_embedding"]["coordinates"]
        assert len(coords) == 3

    def test_line_near_the_tolerance_embeds(self, tmp_path):
        # b and c lie within tol = 1e-9 of a, yet 2e-9 apart: the line
        # a = 0, b = 1e-9, c = -1e-9 used to be called not embeddable
        D = np.array([[0.0, 1e-9, 1e-9], [1e-9, 0.0, 2e-9], [1e-9, 2e-9, 0.0]])
        path = write_space(tmp_path / "line.json", D, ["a", "b", "c"])
        out = tmp_path / "report.json"
        assert main(["check", path, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["line_embedding"] == {
            "coordinates": [0.0, 1e-9, -1e-9], "embeddable": True}

    def test_menger_four_cycle_not_embeddable(self, tmp_path, capsys):
        # every triple is collinear, but the 4-cycle embeds in no line
        D = np.array([[0.0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
        src = write_space(tmp_path / "menger.json", D, ["a", "b", "c", "d"])
        assert main(["check", src]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["ptolemy"] is False
        assert report["line_embedding"] == {"coordinates": None, "embeddable": False}


    @pytest.mark.parametrize("eps, shown", [("inf", "inf"), ("nan", "nan"), ("-1", "-1.0")])
    def test_bad_eps_is_named(self, eps, shown, tmp_path):
        # d(a, b) = 3 > d(a, c) + d(c, b) = 2, which an eps of inf or NaN let through
        D = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        path = write_space(tmp_path / "bad.json", D)
        assert run([f"--eps={eps}", "check", path]) == (
            1, f"error: eps must be finite and nonnegative, not {shown}\n")

    def test_bad_eps_refuses_a_curve(self, tmp_path):
        cf = tmp_path / "curve.json"
        cf.write_text(json.dumps({"R": 1.0, "samples": [[1, 0], [0.4, 0.45], [0, 1]]}))
        out = tmp_path / "matrix.json"
        assert run(["segment", "synth", str(cf), "--output", str(out)]) == (
            1, "error: sample 1 leaves the endpoint wedge\n")
        assert run(["--eps", "inf", "segment", "synth", str(cf), "--output", str(out)]) == (
            1, "error: eps must be finite and nonnegative, not inf\n")
        assert not out.exists()


class TestInvert:
    def test_line_inversion_values(self, line_file, tmp_path):
        out = tmp_path / "inv.json"
        assert main(["invert", line_file, "--at", "p0", "--output", str(out)]) == 0
        sp = mg.space_from_json_dict(json.loads(out.read_text()))
        assert sp.omega_label() == "p0"
        i1, i2 = sp.index("p1"), sp.index("p2")
        assert np.isclose(sp.dist[i1, i2], 0.5)

    def test_roundtrip_restores(self, line_file, tmp_path):
        mid = tmp_path / "mid.json"
        back = tmp_path / "back.json"
        assert main(["invert", line_file, "--at", "p0", "--output", str(mid)]) == 0
        assert main(["invert", str(mid), "--at", "omega", "--output", str(back)]) == 0
        orig = mg.space_from_json_dict(json.loads(open(line_file).read()))
        restored = mg.space_from_json_dict(json.loads(back.read_text()))
        finite = np.isfinite(orig.dist)
        assert np.abs(restored.dist[finite] - orig.dist[finite]).max() <= 1e-12

    def test_bound_at_max_entry(self, line_file, tmp_path):
        out = tmp_path / "bounded.json"
        assert main(["invert", line_file, "--bound-at", "p0", "--output", str(out)]) == 0
        sp = mg.space_from_json_dict(json.loads(out.read_text()))
        assert sp.omega is None
        assert sp.dist.max() <= 1.0 + 1e-12

    def test_unknown_label(self, line_file, capsys):
        assert main(["invert", line_file, "--at", "nope"]) == 1
        assert capsys.readouterr().err == "error: unknown point label 'nope'\n"

    def test_requires_a_point(self, line_file):
        assert main(["invert", line_file]) == 1

    def test_failed_self_check_exits_two(self, sphere_file, monkeypatch, capsys):
        # no input reaches this: an inversion keeps every cross-ratio triple
        failed = inversions.EquivalenceReport(False, 0.25, ("p0", "p1", "p2", "p3"), 70, "scan",
                                              None)
        monkeypatch.setattr(inversions, "crt_equivalent", lambda corr, eps: failed)
        assert main(["invert", sphere_file, "--at", "p0"]) == 2
        assert capsys.readouterr().err == (
            "crt self-check failed: deviation 2.500e-01 at ('p0', 'p1', 'p2', 'p3')\n")


class TestSegmentCircleCommands:
    def test_segment_synth_and_classify(self, tmp_path):
        t = np.linspace(0, 1, 9)
        curve = mg.QuadrantCurve(1.0, np.column_stack([1 - t, t]))
        cf = tmp_path / "curve.json"
        from moebiusgeo.segments import curve_to_json_dict
        cf.write_text(json.dumps(curve_to_json_dict(curve)))
        mf = tmp_path / "matrix.json"
        assert main(["segment", "synth", str(cf), "--output", str(mf)]) == 0
        sp = mg.space_from_json_dict(json.loads(mf.read_text()))
        assert np.isclose(sp.dist[0, -1], 1.0)

        out = tmp_path / "curve2.json"
        csv = tmp_path / "curve.csv"
        assert main(["segment", "classify", str(mf), "--output", str(out),
                     "--csv", str(csv)]) == 0
        data = json.loads(out.read_text())
        assert np.abs(np.asarray(data["samples"]) - curve.samples).max() <= 1e-12
        header = csv.read_text().splitlines()[0]
        assert header == "t,a,b,alpha"

    def test_segment_classify_in_reversed_order(self, tmp_path):
        curve = mg.euclidean_segment_curve(1.0, 0.8, "minor", 9)
        cf, mf = tmp_path / "curve.json", tmp_path / "matrix.json"
        cf.write_text(json.dumps(mg.segments.curve_to_json_dict(curve)))
        assert main(["segment", "synth", str(cf), "--output", str(mf)]) == 0
        labels = json.loads(mf.read_text())["points"]
        forward, backward = tmp_path / "forward.json", tmp_path / "backward.json"
        assert main(["segment", "classify", str(mf), "--output", str(forward)]) == 0
        assert main(["segment", "classify", str(mf), "--output", str(backward),
                     "--order", ",".join(reversed(labels))]) == 0
        fwd = mg.segments.curve_from_json_dict(json.loads(forward.read_text()))
        bwd = json.loads(backward.read_text())
        assert bwd["R"] == fwd.R
        assert np.array(bwd["samples"]).tobytes() == fwd.reflected().samples.tobytes()

    def test_circle_synth_and_classify(self, tmp_path):
        curve = mg.chordal_circle_curve(2.0, 12)
        from moebiusgeo.circles import curve_to_json_dict
        cf = tmp_path / "circle.json"
        cf.write_text(json.dumps(curve_to_json_dict(curve)))
        mf = tmp_path / "matrix.json"
        assert main(["circle", "synth", str(cf), "--output", str(mf)]) == 0
        out = tmp_path / "curve2.json"
        csv = tmp_path / "circle.csv"
        assert main(["circle", "classify", str(mf), "--output", str(out),
                     "--csv", str(csv), "--minus-one", "t6"]) == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "circle"
        assert np.abs(np.asarray(data["samples"]) - curve.samples).max() <= 1e-12
        assert csv.read_text().splitlines()[0] == "t,a,b"

    @pytest.mark.parametrize("kind", ["segment", "circle"])
    def test_classify_csv_bytes(self, kind, tmp_path):
        # the table holds the report's samples, their parameters and, for a
        # segment, their angles, each value written with %.17g
        curve = (mg.euclidean_segment_curve(1.0, 0.8, "minor", 9) if kind == "segment"
                 else mg.chordal_circle_curve(2.0, 12))
        mf, out, csv = tmp_path / "matrix.json", tmp_path / "curve.json", tmp_path / "curve.csv"
        mf.write_text(json.dumps(mg.space_to_json_dict(
            mg.segment_from_curve(curve) if kind == "segment" else mg.circle_from_curve(curve))))
        assert main([kind, "classify", str(mf), "--output", str(out), "--csv", str(csv)]) == 0
        samples = np.array(json.loads(out.read_text())["samples"])
        params = np.linspace(0.0, 1.0 if kind == "segment" else 2.0, len(samples))
        header, columns = ["t", "a", "b"], [params, samples[:, 0], samples[:, 1]]
        if kind == "segment":
            header.append("alpha")
            columns.append(np.arctan2(samples[:, 1], samples[:, 0]))
        assert csv.read_bytes() == csv_bytes(header, columns)

    def test_segment_synth_rejects_circle_curve(self, tmp_path):
        from moebiusgeo.circles import curve_to_json_dict
        cf = tmp_path / "circle.json"
        cf.write_text(json.dumps(curve_to_json_dict(mg.chordal_circle_curve(1.0, 8))))
        assert main(["segment", "synth", str(cf)]) == 1

    def test_classify_rejects_non_segment(self, tmp_path, capsys):
        # equality failure carries a witness, so it is a property failure
        D = np.ones((4, 4)) - np.eye(4)
        sp = mg.ExtendedMetricSpace(("a", "b", "c", "d"), D)
        mf = tmp_path / "tetra.json"
        mf.write_text(json.dumps(mg.space_to_json_dict(sp)))
        assert main(["segment", "classify", str(mf)]) == 2
        assert "property failed" in capsys.readouterr().err


class TestCurveFileCells:
    """A curve file's R and sample cells must be JSON numbers, as matrix cells must."""

    CASES = {
        "bool_R": ({"R": True, "samples": [[1, 0], [0, 1]]}, "R True is not a number"),
        "string_R": ({"R": "1", "samples": [[1, 0], [0, 1]]}, "R '1' is not a number"),
        "bool_cell": ({"R": 1, "samples": [[1, 0], [0.5, False], [0, 1]]},
                      "sample cell False is not a number"),
        "numeric_string_cell": ({"R": 1, "samples": [[1, 0], ["0.5", "0.5"], [0, 1]]},
                                "sample cell '0.5' is not a number"),
        "ragged_row": ({"R": 1, "samples": [[1, 0], [0.5], [0, 1]]}, "inhomogeneous"),
        "integer_beyond_float_R": ({"R": 10 ** 400, "samples": [[1, 0], [0, 1]]},
                                   "int too large to convert to float"),
    }

    @pytest.mark.parametrize("kind", ["segment", "circle"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_refused(self, kind, name, tmp_path):
        data, detail = self.CASES[name]
        cf, out = tmp_path / "curve.json", tmp_path / "m.json"
        cf.write_text(json.dumps(data))
        code, err = run([kind, "synth", str(cf), "--output", str(out)])
        assert code == 1 and err.startswith("error: malformed curve JSON: ") and detail in err
        assert not out.exists()

    def test_numbers_are_read(self, tmp_path):
        cf, out = tmp_path / "curve.json", tmp_path / "m.json"
        cf.write_text(json.dumps({"R": 1, "samples": [[1, 0], [0.5, 0.5], [0, 1]]}))
        assert run(["segment", "synth", str(cf), "--output", str(out)]) == (0, "")
        assert json.loads(out.read_text())["matrix"][0] == [0.0, 0.5, 1.0]


class TestMap:
    def test_segment_map_straight_to_halfcircle(self, tmp_path):
        t = np.linspace(0, 1, 9)
        src = mg.segment_from_curve(mg.QuadrantCurve(1.0, np.column_stack([1 - t, t])))
        td = np.linspace(0, 1, 257)
        dst = mg.segment_from_curve(
            mg.QuadrantCurve(1.0, np.column_stack([np.cos(np.pi * td / 2),
                                                   np.sin(np.pi * td / 2)])))
        fs, fd = tmp_path / "src.json", tmp_path / "dst.json"
        fs.write_text(json.dumps(mg.space_to_json_dict(src)))
        fd.write_text(json.dumps(mg.space_to_json_dict(dst)))
        out = tmp_path / "map.json"
        assert main(["map", "segment", "--src", str(fs), "--dst", str(fd),
                     "--src-anchors", "t0,t4,t8", "--dst-anchors", "t0,t128,t256",
                     "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["max_crt_deviation"] <= 1e-4
        assert len(data["pairs"]) == 9

    def test_circle_map_between_radii(self, tmp_path):
        s1 = mg.circle_from_curve(mg.chordal_circle_curve(2.0, 12))
        s5 = mg.circle_from_curve(mg.chordal_circle_curve(10.0, 12))
        f1, f5 = tmp_path / "c1.json", tmp_path / "c5.json"
        f1.write_text(json.dumps(mg.space_to_json_dict(s1)))
        f5.write_text(json.dumps(mg.space_to_json_dict(s5)))
        out = tmp_path / "map.json"
        assert main(["map", "circle", "--src", str(f1), "--dst", str(f5),
                     "--src-anchors", "t0,t4,t8", "--dst-anchors", "t0,t4,t8",
                     "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["max_crt_deviation"] <= 1e-9
        positions = [p["position"] for p in data["pairs"]]
        assert np.abs(np.asarray(positions) - np.linspace(0, 2, 13)[:-1]).max() <= 1e-9

    def test_three_point_source_has_no_deviation(self, tmp_path, capsys):
        curve = mg.QuadrantCurve(1.0, [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        path = write_space(tmp_path / "m.json", mg.segment_from_curve(curve).dist)
        assert main(["map", "segment", "--src", path, "--dst", path,
                     "--src-anchors", "t0,t1,t2", "--dst-anchors", "t0,t1,t2"]) == 0
        out = capsys.readouterr().out
        assert '"max_crt_deviation": null' in out
        assert [p["position"] for p in json.loads(out)["pairs"]] == [0.0, 0.5, 1.0]

    @staticmethod
    def close_pair(kind):
        """Matrices with two points 2e-10 or less apart, clean and with one
        distance moved within eps, which swaps their positions, and anchors."""
        if kind == "segment":
            x = np.array([0.0, 0.25, 0.5, 0.5 + 1e-10, 1.0])
            clean = np.abs(np.subtract.outer(x, x))
            moved, (i, j), f = clean.copy(), (1, 3), (0.25 - 1e-10) / 0.25
            anchors = "t0,t1,t4"
        else:
            h = 2.0 ** -32
            curve = mg.HalfplaneCurve(1.0, [(1, 0), (0.5, 0.75), (0.5 - h, 0.75), (-0.5, 0.75),
                                            (-1, 0)])
            clean = mg.circle_from_curve(curve).dist
            moved, (i, j), f = clean.copy(), (0, 1), 1 + 9e-10
            anchors = "t0,t1,t2"
        moved[i, j] = moved[j, i] = clean[i, j] * f
        return clean, moved, anchors

    @pytest.mark.parametrize("kind, message", [
        ("segment", "error: destination path positions are not monotone"),
        ("circle", "error: destination loop positions are not monotone"),
    ], ids=["segment", "circle"])
    def test_destination_positions_not_monotone(self, kind, message, tmp_path):
        clean, moved, anchors = self.close_pair(kind)
        src = write_space(tmp_path / "src.json", clean)
        dst = write_space(tmp_path / "dst.json", moved)
        code, err = run(["map", kind, "--src", src, "--dst", dst,
                         "--src-anchors", anchors, "--dst-anchors", anchors])
        assert (code, err) == (1, message + "\n")
        # the unmoved destination maps
        assert run(["map", kind, "--src", src, "--dst", src,
                    "--src-anchors", anchors, "--dst-anchors", anchors])[0] == 0

    def test_segment_map_slack_follows_eps(self, tmp_path, capsys):
        # classify accepts the noisy line at eps 1e-4, and t3 reads position 1 + 5e-7
        clean, noisy = noisy_line()
        src = write_space(tmp_path / "src.json", noisy)
        dst = write_space(tmp_path / "dst.json", clean)
        assert main(["--eps", "1e-4", "segment", "classify", src]) == 0
        capsys.readouterr()

        def map_with(anchors):
            return run(["--eps", "1e-4", "map", "segment", "--src", src, "--dst", dst,
                        "--src-anchors", anchors, "--dst-anchors", anchors])

        assert map_with("t0,t2,t4") == (0, "")
        data = json.loads(capsys.readouterr().out)
        assert data["max_crt_deviation"] <= 1e-5
        assert [p["position"] for p in data["pairs"]][3:] == [1.0, 1.0]
        # anchors t3 and t4 within eps wrap t2 to position 1.5: still refused
        assert map_with("t0,t3,t4") == (
            1, "error: source map value outside the sampled destination range\n")


def dented_curve() -> np.ndarray:
    """A quarter of the unit circle with a shallow inward dent of 25 samples.

    Every turn is above -eps R^2, so the curve passes its checks at the
    default eps, but its area form misses the triangle inequality by 1e-6.
    """
    th = np.linspace(0.0, np.pi / 2, 12)
    a, b = np.array([math.cos(0.7), math.sin(0.7)]), np.array([math.cos(0.72), math.sin(0.72)])
    out = (a + b) / np.linalg.norm(a + b)
    s = np.linspace(0.0, 1.0, 25)[:, None]
    dent = a + s * (b - a) - 2e-4 * s * (1 - s) * out
    arc = np.column_stack([np.cos(th), np.sin(th)])
    S = np.vstack([arc[th < 0.7], dent, arc[th > 0.72]])
    S[0], S[-1] = (1.0, 0.0), (0.0, 1.0)
    return S


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def eager_verdict(kind: str, data: dict) -> tuple[int, str]:
    """Exit code and message of classify with every check run on construction."""
    try:
        space = mg.space_from_json_dict(data)
        (mg.curve_from_segment if kind == "segment" else mg.curve_from_circle)(space)
    except NotPtolemyError as exc:
        return 2, f"property failed: {exc}"
    except ValueError as exc:  # ValidationError included
        return 1, f"error: {exc}"
    return 0, ""


def write_space(path, D, labels=None) -> str:
    labels = labels or [f"t{i}" for i in range(len(D))]
    sp = {"points": labels, "omega": None, "matrix": D.tolist()}
    with open(path, "w") as fh:
        json.dump(sp, fh)
    return str(path)


class TestTriangleCertificate:
    """classify and map defer the input's triangle pass to the recovered curve."""

    def test_collinear_300_points_rejected(self, tmp_path):
        D = np.abs(np.arange(300.0)[:, None] - np.arange(300.0))
        D[5, 7] = D[7, 5] = 2.5
        path = write_space(tmp_path / "line.json", D, [f"p{i}" for i in range(300)])
        message = "error: triangle inequality fails: d(p5,p7) > d(p5,p6) + d(p6,p7)\n"
        for argv in (["check", path], ["segment", "classify", path],
                     ["circle", "classify", path]):
            assert run(argv) == (1, message)

    def test_straight_and_round_inputs_skip_the_pass(self, tmp_path, monkeypatch):
        t = np.linspace(0.0, 1.0, 300)
        line = mg.segment_from_curve(mg.QuadrantCurve(1.0, np.column_stack([1 - t, t])))
        ring = mg.circle_from_curve(mg.chordal_circle_curve(2.0, 300))
        fl, fr = write_space(tmp_path / "l.json", line.dist), write_space(tmp_path / "r.json", ring.dist)
        u = np.linspace(0.0, 1.0, 20)
        short = mg.segment_from_curve(mg.QuadrantCurve(1.0, np.column_stack([1 - u, u])))
        fs = write_space(tmp_path / "s.json", short.dist)

        def forbidden(*args):
            raise AssertionError("the triangle pass ran")

        monkeypatch.setattr(spaces, "_check_triangle", forbidden)
        assert run(["segment", "classify", fl])[0] == 0
        assert run(["circle", "classify", fr])[0] == 0
        assert run(["map", "segment", "--src", fs, "--dst", fl, "--src-anchors", "t0,t9,t19",
                    "--dst-anchors", "t0,t9,t299", "--output", str(tmp_path / "m.json")])[0] == 0

    def test_dented_curve_is_not_trusted(self, tmp_path):
        from moebiusgeo.segments import curve_to_json_dict
        curve = mg.QuadrantCurve(1.0, dented_curve())
        with pytest.raises(ValidationError, match="triangle inequality fails"):
            mg.segment_from_curve(curve)
        cf = tmp_path / "dent.json"
        cf.write_text(json.dumps(curve_to_json_dict(curve)))
        code, err = run(["segment", "synth", str(cf), "--output", str(tmp_path / "m.json")])
        assert code == 1 and "triangle inequality fails" in err
        assert not (tmp_path / "m.json").exists()

    def test_dented_matrix_is_not_certified(self, tmp_path):
        from moebiusgeo.segments import _area_metric
        path = write_space(tmp_path / "dent.json", _area_metric(dented_curve(), 1.0))
        message = eager_verdict("segment", json.load(open(path)))
        assert message[0] == 1 and "triangle inequality fails" in message[1]
        assert run(["segment", "classify", path]) == (message[0], message[1] + "\n")

    def test_source_triangle_failure_precedes_later_errors(self, tmp_path):
        D = np.abs(np.arange(6.0)[:, None] - np.arange(6.0))
        D[0, 2] = D[2, 0] = 2.5
        src = write_space(tmp_path / "src.json", D)
        code, err = run(["map", "segment", "--src", src, "--dst", str(tmp_path / "missing.json"),
                         "--src-anchors", "t0,t1,t5", "--dst-anchors", "t0,t1,t5"])
        assert (code, err) == (1, "error: triangle inequality fails: d(t0,t2) > d(t0,t1) + d(t1,t2)\n")

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["segment", "circle"]), n=st.integers(20, 60),
           bend=st.sampled_from([0.0, 1e-6, 1e-3, 1.0]), seed=st.integers(0, 2 ** 32 - 1),
           edge=st.sampled_from(["eps/3", "eps", "slack"]), factor=st.floats(0.5, 2.0),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_verdict_equals_the_eager_checks(self, kind, n, bend, seed, edge, factor, sign):
        rng = np.random.default_rng(seed)
        if kind == "segment":  # an arc of curvature bend and length about 1
            s = np.sort(rng.uniform(-0.5, 0.5, n))
            P = (np.column_stack([s, np.zeros(n)]) if bend == 0.0 else np.column_stack(
                [np.sin(bend * s) / bend, -2.0 * np.sin(bend * s / 2) ** 2 / bend]))
        else:
            phi = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
            P = np.column_stack([np.cos(phi), np.sin(phi)])
        D = np.sqrt(((P[:, None] - P[None]) ** 2).sum(axis=-1))
        i, j = sorted(rng.choice(n, 2, replace=False))
        through = np.delete(D[i] + D[j], [i, j]).min()
        delta = {"eps/3": 1e-9 / 3, "eps": 1e-9, "slack": (through - D[i, j]) / max(D[i, j], 1e-300)}[edge]
        D[i, j] = D[j, i] = D[i, j] * (1.0 + sign * factor * delta)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_space(os.path.join(tmp, "in.json"), D)
            expected = eager_verdict(kind, json.load(open(path)))
            code, err = run([kind, "classify", path, "--output", os.path.join(tmp, "out.json")])
        assert (code, err.rstrip("\n")) == expected


class TestSphereExotic:
    def test_sphere_report_and_determinism(self, tmp_path, capsys):
        args = ["sphere", "--kind", "hemisphere", "--n", "2", "--count", "12",
                "--seed", "5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        report = json.loads(first)
        assert report["ptolemy"] is True

    def test_sphere_matrix_out(self, tmp_path):
        mf = tmp_path / "matrix.json"
        assert main(["sphere", "--kind", "sphere", "--count", "6", "--seed", "1",
                     "--matrix-out", str(mf), "--output", str(tmp_path / "r.json")]) == 0
        sp = mg.space_from_json_dict(json.loads(mf.read_text()))
        assert sp.n == 6

    def test_l1_sphere_command_exit_two(self, tmp_path):
        assert main(["sphere", "--kind", "l1", "--count", "6", "--seed", "1",
                     "--output", str(tmp_path / "r.json")]) == 2

    def test_exotic_values(self, tmp_path):
        out = tmp_path / "exotic.json"
        assert main(["exotic", "--l", "1.0", "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert abs(data["homothety"]["NS_ratio"] - 0.6480542736638855) <= 1e-6
        assert abs(data["homothety"]["equator_ratio"] - 0.36787944117144233) <= 1e-9
        assert data["homothety"]["homothetic"] is False

    def test_exotic_rejects_zero_separation(self, capsys):
        assert main(["exotic", "--l", "0.0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_exotic_rejects_unusable_truncation(self, capsys):
        # inf, nan and an overflowing cosh l are usage errors, not tracebacks
        for ell in ("inf", "nan", "800"):
            assert main(["exotic", "--l", ell]) == 1
            assert "error:" in capsys.readouterr().err

    def test_out_of_range_sphere_args(self):
        assert main(["sphere", "--kind", "sphere", "--n", "9"]) == 1


class TestMatrixOutput:
    """Matrix files are written row by row with the text of json.dumps."""

    @staticmethod
    def reference(space) -> str:
        return json.dumps(mg.space_to_json_dict(space), indent=2, sort_keys=True) + "\n"

    def test_synth_files(self, tmp_path):
        from moebiusgeo import circles, segments
        t = np.linspace(0, 1, 9)
        for kind, module, curve, synth in (
                ("segment", segments, mg.QuadrantCurve(1.0, np.column_stack([1 - t, t])),
                 mg.segment_from_curve),
                ("circle", circles, mg.chordal_circle_curve(2.0, 12), mg.circle_from_curve)):
            cf, mf = tmp_path / f"{kind}.json", tmp_path / f"{kind}_matrix.json"
            cf.write_text(json.dumps(module.curve_to_json_dict(curve)))
            assert main([kind, "synth", str(cf), "--output", str(mf)]) == 0
            assert mf.read_text() == self.reference(synth(curve))

    def test_invert_file_and_stdout(self, sphere_file, tmp_path, capsys):
        sp = mg.space_from_json_dict(json.loads(open(sphere_file).read()))
        expected = self.reference(mg.bound_at(mg.invert_at(sp, "p2"), "p5"))
        out = tmp_path / "inverted.json"
        args = ["invert", sphere_file, "--at", "p2", "--bound-at", "p5"]
        assert main(args + ["--output", str(out)]) == 0
        assert out.read_text() == expected
        assert main(args) == 0
        assert capsys.readouterr().out == expected

    def test_sphere_matrix_out(self, tmp_path):
        mf = tmp_path / "matrix.json"
        assert main(["sphere", "--kind", "halfspace", "--count", "9", "--seed", "4",
                     "--matrix-out", str(mf), "--output", str(tmp_path / "r.json")]) == 0
        assert mf.read_text() == self.reference(mg.sample_space("halfspace", count=9, seed=4))


def canonical(data: bytes) -> bytes:
    """The bytes of json.dumps(..., indent=2, sort_keys=True) + "\\n" for the document in data."""
    return (json.dumps(json.loads(data), indent=2, sort_keys=True) + "\n").encode()


def write_json(path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


class TestOutputBytes:
    """Every writing command writes the same bytes to --output as to stdout,
    the bytes of json.dumps(..., indent=2, sort_keys=True) + "\\n"."""

    @staticmethod
    def argv(name, tmp_path) -> list[str]:
        from moebiusgeo import circles, segments
        accents = tuple(f"\u00e9{i}" for i in range(9))
        segment = mg.segment_from_curve(mg.euclidean_segment_curve(1.0, 0.8, "minor", 9))
        circle = mg.circle_from_curve(mg.chordal_circle_curve(2.0, 12))
        files = {
            "line": mg.space_from_points(np.array([0.0, 1.0, 2.5, 4.0])[:, None],
                                         accents[:4], add_omega=True),
            "sphere": mg.ExtendedMetricSpace(accents[:8], mg.sample_space("sphere", count=8).dist),
            "segment": segment,
            "accents": mg.ExtendedMetricSpace(accents, segment.dist),
            "short_edge": mg.space_from_points(np.array([0.0, 5e-5, 1.0])[:, None]),
            "circle": circle,
        }
        path = {key: write_json(tmp_path / f"{key}.json", mg.space_to_json_dict(sp))
                for key, sp in files.items()}
        path["segcurve"] = write_json(tmp_path / "segcurve.json", segments.curve_to_json_dict(
            mg.euclidean_segment_curve(1.0, 0.8, "minor", 9)))
        path["circcurve"] = write_json(tmp_path / "circcurve.json", circles.curve_to_json_dict(
            mg.chordal_circle_curve(2.0, 12)))
        return {
            "invert": ["invert", path["line"], "--at", "\u00e91", "--bound-at", "\u00e92"],
            "check": ["check", path["sphere"]],
            "segment_synth": ["segment", "synth", path["segcurve"]],
            "circle_synth": ["circle", "synth", path["circcurve"]],
            "sphere": ["sphere", "--count", "7", "--matrix-out", str(tmp_path / "out_matrix.json")],
            "segment_classify": ["segment", "classify", path["segment"]],
            "segment_classify_short_edge": ["segment", "classify", path["short_edge"]],
            "circle_classify": ["circle", "classify", path["circle"], "--minus-one", "t6"],
            "map_segment": ["map", "segment", "--src", path["accents"], "--dst", path["segment"],
                            "--src-anchors", ",".join(accents[::4]), "--dst-anchors", "t0,t4,t8"],
            "map_circle": ["map", "circle", "--src", path["circle"], "--dst", path["circle"],
                           "--src-anchors", "t0,t4,t8", "--dst-anchors", "t0,t4,t8"],
            "exotic": ["exotic", "--l", "1", "--angles", "6"],
        }[name]

    # and how many times the command calls orjson.dumps: once for a matrix
    # that orjson writes, none where json.dumps writes it, as for every report
    @pytest.mark.parametrize("name, dumps", [
        ("invert", 1), ("check", 0), ("segment_synth", 1), ("circle_synth", 1), ("sphere", None),
        ("segment_classify", 0), ("segment_classify_short_edge", 0), ("circle_classify", 0),
        ("map_segment", 0), ("map_circle", 0), ("exotic", 0),
    ])
    def test_file_and_stdout(self, name, dumps, tmp_path, capsysbinary, monkeypatch):
        import orjson
        calls, orjson_dumps = [], orjson.dumps
        monkeypatch.setattr(orjson, "dumps", lambda *a, **k: calls.append(a) or orjson_dumps(*a, **k))
        argv, out = self.argv(name, tmp_path), tmp_path / "out.json"
        assert main(argv + ["--output", str(out)]) == 0
        assert dumps is None or len(calls) == dumps
        assert main(argv) == 0
        stdout, stderr = capsysbinary.readouterr()
        assert stdout == out.read_bytes() == canonical(stdout) and stderr == b""
        for matrix in tmp_path.glob("out_*.json"):
            assert matrix.read_bytes() == canonical(matrix.read_bytes())

    @pytest.mark.parametrize("name", ["segment_synth", "segment_classify", "exotic"])
    def test_text_stdout(self, name, tmp_path):
        # a stdout without a byte buffer, as under contextlib.redirect_stdout
        argv, out, text = self.argv(name, tmp_path), tmp_path / "out.json", io.StringIO()
        assert main(argv + ["--output", str(out)]) == 0
        with contextlib.redirect_stdout(text):
            assert main(argv) == 0
        assert text.getvalue().encode() == out.read_bytes()


# Matrix files that orjson refuses or reads to other objects than the stdlib
REREAD_BY_THE_STDLIB = {
    "nan": '{"points": ["a", "b"], "matrix": [[0, NaN], [NaN, 0]]}',
    "infinity": '{"points": ["a", "b"], "matrix": [[0, Infinity], [Infinity, 0]]}',
    "minus_infinity": '{"points": ["a", "b"], "matrix": [[0, -Infinity], [-Infinity, 0]]}',
    "overflowing_float": '{"points": ["a", "b"], "matrix": [[0, 1e999], [1e999, 0]]}',
    "400_digit_cell": '{"points": ["a", "b"], "matrix": [[0, %s], [%s, 0]]}' % ("9" * 400, "9" * 400),
    "30_digit_label": '{"points": [%s, "b", "c", "d"], "matrix": %s}' % (
        "1" * 30, json.dumps(np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0))).tolist())),
    "lone_surrogate": '{"points": ["\\ud800", "b"], "matrix": [[0, 1], [1, 0]]}',
    "bom": '\ufeff{"points": ["a", "b"], "matrix": [[0, 1], [1, 0]]}',
    "trailing_comma": '{"points": ["a", "b"], "matrix": [[0, 1], [1, 0],]}',
}


def _matrix_file(cells: str, labels: str = '"a", "b", "c"', omega: str = "null") -> bytes:
    return ('{"points": [%s], "omega": %s, "matrix": %s}' % (labels, omega, cells)).encode()


LINE = "[[0.0, 1.0, 2.5], [1.0, 0.0, 1.5], [2.5, 1.5, 0.0]]"
# Matrix files, and whether the matrix is converted whole: orjson decodes the
# file, and every cell is a number or an infinity
MATRIX_FILES = {
    "line": (_matrix_file(LINE), True),
    # no byte of a label counts: a u or an l is in true, null and false too
    "labels_with_u_and_l": (_matrix_file(LINE, '"l1", "lu0", "Paul"'), True),
    "labels_with_u_and_l_no_null": (
        ('{"points": ["lu0", "lu1", "lu2"], "matrix": %s}' % LINE).encode(), True),
    # a boolean that np.array would read as the 0 or 1 of the other cells
    "true_beside_a_one": (_matrix_file("[[0, 1, true], [1, 0, 1], [true, 1, 0]]"), False),
    "false_on_the_diagonal": (_matrix_file("[[false, 1.5], [1.5, 0]]", '"a", "b"'), False),
    "booleans": (_matrix_file("[[0.0, true], [true, 0.0]]", '"a", "b"'), False),
    "boolean_after_row_0": (_matrix_file("[[0.0, 1], [true, 0.0]]", '"a", "b"'), False),
    "boolean_after_row_0_label_with_l": (_matrix_file("[[0.0, 1], [true, 0.0]]", '"a", "l"'),
                                         False),
    "boolean_after_row_0_no_null": (
        b'{"points": ["a", "b"], "matrix": [[0.0, 1], [true, 0.0]]}', False),
    "false_after_row_0": (_matrix_file("[[0.0, 1.5], [false, 0.0]]", '"a", "b"'), False),
    "null_after_row_0": (_matrix_file("[[0.0, 1.5], [null, 0.0]]", '"a", "b"'), False),
    "inf_strings": (_matrix_file('[[0, 1, "inf"], [1, 0, " Infinity "], ["inf", " Infinity ", 0]]',
                                 omega='"c"'), True),
    "nan_string": (_matrix_file('[[0, "nan"], ["nan", 0]]', '"a", "b"'), False),
    "string_after_row_0": (_matrix_file('[[0, 1, 2], [1, 0, 1], ["2", 1, 0]]'), False),
    "ragged_row": (_matrix_file("[[0, 1, 2], [1, 0], [2, 1, 0]]"), False),
    "row_holding_a_list": (_matrix_file("[[0, 1, 2], [1, 0, [1]], [2, [1], 0]]"), False),
    "rows_of_lists": (_matrix_file("[[[0], [1]], [[1], [0]]]", '"a", "b"'), False),
    "all_ints": (_matrix_file("[[0, 1, 3], [1, 0, 2], [3, 2, 0]]"), True),
    "ints_and_floats": (_matrix_file(
        "[[0, 0.5, 18446744073709551615], [0.5, 0, 18446744073709551615], "
        "[18446744073709551615, 18446744073709551615, 0]]"), True),
    "no_rows": (_matrix_file("[[]]"), True),
    "crlf": (_matrix_file(LINE).replace(b", ", b",\r\n"), True),
    "bom": (b"\xef\xbb\xbf" + _matrix_file(LINE), False),
    "invalid_utf8": (_matrix_file(LINE, '"a", "\xff", "c"').replace(b"\xc3\xbf", b"\xff"), False),
    "non_ascii_label": (_matrix_file(LINE, '"a", "\u00e9", "c"'), True),
    # a remote point c, and in the cell d(a, b) another string or a boolean
    "remote_point_numeric_string": (_matrix_file(
        '[[0, "2", "inf"], ["2", 0, "inf"], ["inf", "inf", 0]]', omega='"c"'), False),
    "remote_point_boolean": (_matrix_file(
        '[[0, true, "inf"], [true, 0, "inf"], ["inf", "inf", 0]]', omega='"c"'), False),
    "remote_point_padded_infinity": (_matrix_file(
        '[[0, " Infinity ", "inf"], [" Infinity ", 0, "inf"], ["inf", "inf", 0]]',
        omega='"c"'), True),
    # the integer of 1101 bits comes first, and is named before the "nan" after it
    "remote_point_big_integer_before_a_bad_string": (_matrix_file(
        '[[0, %d, "inf"], ["nan", 0, "inf"], ["inf", "inf", 0]]' % 2 ** 1100, omega='"c"'),
        False),
}


def stdlib_read(path):
    with open(path) as fh:
        return json.load(fh)


def read_with_the_stdlib(monkeypatch):
    """Make the CLI read matrix files with json.load and space_from_json_dict,
    its matrices cell by cell, and curve files with json.load."""
    monkeypatch.setattr(spaces, "_read_space",
                        lambda path, eps: spaces.space_from_json_dict(stdlib_read(path), eps))
    monkeypatch.setattr(spaces, "_matrix_cells", per_cell)
    monkeypatch.setattr(spaces, "_read_json", stdlib_read)


class TestJsonReader:
    """The CLI reads with orjson where it can, and as the stdlib decoder would."""

    @pytest.mark.parametrize("name", sorted(REREAD_BY_THE_STDLIB))
    def test_check_answers_as_with_the_stdlib(self, name, tmp_path, capsys, monkeypatch):
        import orjson
        text = REREAD_BY_THE_STDLIB[name]
        try:
            assert not spaces._decoded_alike(orjson.loads(text))
        except orjson.JSONDecodeError:
            pass
        path = tmp_path / "matrix.json"
        path.write_text(text, encoding="utf-8")
        code = main(["check", str(path)])
        got = (code, *capsys.readouterr())
        read_with_the_stdlib(monkeypatch)
        code = main(["check", str(path)])
        assert got == (code, *capsys.readouterr())

    def test_check_of_a_label_too_wide_for_orjson(self, tmp_path, capsys):
        path = tmp_path / "matrix.json"
        path.write_text(REREAD_BY_THE_STDLIB["30_digit_label"])
        assert main(["check", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["worst_quadruple"][0] == "1" * 30

    @pytest.mark.parametrize("command", [["check"], ["segment", "classify"]],
                             ids=["command0", "command1"])
    @pytest.mark.parametrize("name", sorted(MATRIX_FILES))
    def test_commands_answer_as_with_the_stdlib(self, name, command, tmp_path, capsysbinary,
                                                monkeypatch):
        raw, whole = MATRIX_FILES[name]
        path = tmp_path / "matrix.json"
        path.write_bytes(raw)
        matrices, build = [], spaces.space_from_json_dict
        monkeypatch.setattr(spaces, "space_from_json_dict",
                            lambda data, eps: matrices.append(data["matrix"]) or build(data, eps))
        got = (main([*command, str(path)]), *capsysbinary.readouterr())
        # whether the file reader hands the matrix over as one array
        assert (type(matrices[0]) is np.ndarray if matrices else False) is whole
        monkeypatch.undo()
        read_with_the_stdlib(monkeypatch)
        assert got == (main([*command, str(path)]), *capsysbinary.readouterr())

    @pytest.mark.parametrize("name, decodes", [
        ("line", 1), ("inf_strings", 1), ("string_after_row_0", 1), ("booleans", 1),
        ("crlf", 1),
        # not ASCII: orjson decodes the text (and refuses the BOM, which the
        # stdlib then decodes); invalid UTF-8 fails before any decode
        ("bom", 1), ("non_ascii_label", 1), ("invalid_utf8", 0),
        ("curve", 1),  # a curve file, which segment synth reads
    ])
    def test_a_file_is_decoded_once(self, name, decodes, tmp_path, capsysbinary, monkeypatch):
        import orjson
        if name == "curve":
            raw, command = b'{"R": 1.0, "samples": [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]}', [
                "segment", "synth"]
        else:
            raw, command = MATRIX_FILES[name][0], ["check"]
        path = tmp_path / "input.json"
        path.write_bytes(raw)
        read_with_the_stdlib(monkeypatch)
        expected = (main([*command, str(path)]), *capsysbinary.readouterr())
        monkeypatch.undo()
        calls, loads = [], orjson.loads
        monkeypatch.setattr(orjson, "loads", lambda *a, **k: calls.append(a) or loads(*a, **k))
        assert (main([*command, str(path)]), *capsysbinary.readouterr()) == expected
        assert len(calls) == decodes

    def test_a_remote_point_file_is_decoded_once_as_the_sphere_command_writes_it(
            self, tmp_path, capsysbinary, monkeypatch):
        import orjson
        path = tmp_path / "h.json"
        assert main(["sphere", "--kind", "halfspace", "--count", "6",
                     "--matrix-out", str(path)]) == 0
        capsysbinary.readouterr()
        assert b'"inf"' in path.read_bytes()
        calls, loads = [], orjson.loads
        monkeypatch.setattr(orjson, "loads", lambda *a, **k: calls.append(a) or loads(*a, **k))
        assert main(["check", str(path)]) == 0
        assert len(calls) == 1

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("name", ["line", "inf_strings"])
    def test_a_pipe_reads_as_a_file(self, name, tmp_path, capsysbinary):
        # the file is read once: a pipe, as from <(...), cannot be read again
        raw = MATRIX_FILES[name][0]
        path = tmp_path / "matrix.json"
        path.write_bytes(raw)
        expected = (main(["check", str(path)]), *capsysbinary.readouterr())
        r, w = os.pipe()
        os.write(w, raw)
        os.close(w)
        try:
            assert (main(["check", f"/dev/fd/{r}"]), *capsysbinary.readouterr()) == expected
        finally:
            os.close(r)


class TestUsageErrors:
    """argparse exits 2 on a usage error, the code of a failed property; the
    CLI exits 1 instead, with argparse's message."""

    @pytest.mark.parametrize("argv, message", [
        (["check"], "moebiusgeo check: error: the following arguments are required: matrix"),
        (["frob"], "moebiusgeo: error: argument command: invalid choice: 'frob'"),
        (["sphere", "--n", "x"], "moebiusgeo sphere: error: argument --n: invalid int value: 'x'"),
    ], ids=["missing-file", "unknown-command", "bad-int"])
    def test_exit_one_with_the_message(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: moebiusgeo")
        assert err.splitlines()[-1].startswith(message)

    @pytest.mark.parametrize("kind", ["segment", "circle"])
    def test_map_anchors_not_a_triple(self, kind, tmp_path):
        if kind == "segment":
            t = np.linspace(0.0, 1.0, 6)
            space = mg.segment_from_curve(mg.QuadrantCurve(1.0, np.column_stack([1 - t, t])))
        else:
            space = mg.circle_from_curve(mg.chordal_circle_curve(2.0, 6))
        path = write_space(tmp_path / "m.json", space.dist)
        for anchors in ["t0,t5", "t0,t2,t5,t1", "t0,t2,t4,t0"]:
            for src, dst in [(anchors, "t0,t2,t5"), ("t0,t2,t5", anchors)]:
                code, err = run(["map", kind, "--src", path, "--dst", path,
                                 "--src-anchors", src, "--dst-anchors", dst])
                assert code == 1 and "Traceback" not in err
                assert err.splitlines()[-1] == (
                    "error: anchor triples must consist of three distinct points")

    DEEP = "[" * 5000 + "]" * 5000  # nested beyond the stdlib decoder's recursion limit

    @pytest.mark.parametrize("command, text, message", [
        (["check"], '{"points": ["a"], "matrix": [[0]], "x": %s}' % DEEP,
         "error: maximum recursion depth exceeded while decoding a JSON array"),
        (["segment", "synth"], '{"R": 1.0, "samples": [[1.0, 0.0], [0.0, 1.0]], "x": %s}' % DEEP,
         "error: maximum recursion depth exceeded while decoding a JSON array"),
        (["check"], '{"points": "abc", "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}',
         "error: malformed distance-matrix JSON: points must be a list, not str"),
        (["check"], '{"points": {"a": 0, "b": 1, "c": 2}, '
                    '"matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}',
         "error: malformed distance-matrix JSON: points must be a list, not dict"),
        (["check"], '{"points": ["a", "b"], "matrix": {"a": 1}}',
         "error: malformed distance-matrix JSON: matrix must be a list, not dict"),
        (["check"], '{"points": ["a", "b"], "matrix": [[0, 1], "ab"]}',
         "error: malformed distance-matrix JSON: matrix row 1 must be a list, not str"),
    ], ids=["deep-matrix-file", "deep-curve-file", "points-string", "points-object",
            "matrix-object", "matrix-row-string"])
    def test_input_error_exits_one(self, command, text, message, tmp_path):
        path = tmp_path / "input.json"
        path.write_text(text)
        code, err = run([*command, str(path)])
        assert code == 1 and "Traceback" not in err
        assert err.splitlines()[-1].startswith(message)

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]], ids=["argv0", "argv1"])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: moebiusgeo")

    @pytest.mark.parametrize("argv, message", [
        (["segment", "classify", "--order", "t0,t0,t1"],
         "error: order must list every point exactly once"),
        (["circle", "classify", "--minus-one", "t0"],
         "error: the second base point must differ from the first"),
    ], ids=["order-repeats-a-point", "minus-one-at-the-base"])
    def test_classify_refusal(self, argv, message, tmp_path):
        curve = mg.chordal_circle_curve(2.0, 4) if argv[0] == "circle" else mg.QuadrantCurve(
            1.0, [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        space = (mg.circle_from_curve if argv[0] == "circle" else mg.segment_from_curve)(curve)
        path = write_space(tmp_path / "m.json", space.dist)
        assert run([*argv, path]) == (1, message + "\n")

    def test_l1_sample_of_three_points(self):
        assert run(["sphere", "--kind", "l1", "--count", "3"]) == (
            1, "error: l1 samples need at least four points for the square witness\n")


class TestEntryPoint:
    """``console_main``, the installed script's entry, freezes the import-time
    heap before it runs ``main``; ``main`` leaves the collector as it found it."""

    def test_console_main_freezes_then_exits_with_the_code_of_main(self, monkeypatch):
        frozen = []

        def stub(argv=None):
            frozen.append(gc.get_freeze_count())
            return 2

        monkeypatch.setattr(cli, "main", stub)
        try:
            with pytest.raises(SystemExit) as exc:
                cli.console_main()
        finally:
            gc.unfreeze()
        assert exc.value.code == 2
        assert len(frozen) == 1 and frozen[0] > 0

    def test_main_leaves_the_collector_alone(self, sphere_file, tmp_path):
        before = gc.get_freeze_count()
        assert main(["check", sphere_file, "--output", str(tmp_path / "r.json")]) == 0
        assert main(["exotic", "--l", "1", "--angles", "6",
                     "--output", str(tmp_path / "e.json")]) == 0
        assert gc.get_freeze_count() == before

    STARTUP = """
import argparse, contextlib, contextvars, dataclasses, functools, gc, io, itertools, json
import math, operator, sys
import numpy
compiled = []
sys.addaudithook(lambda event, args: event == "compile" and compiled.append(args[1]))
import moebiusgeo.cli
print(compiled.count("<string>"), "orjson" in sys.modules)
moebiusgeo.cli.main(["exotic", "--l", "1", "--angles", "6", "--output", sys.argv[1]])
print("orjson" in sys.modules)
"""

    def test_import_generates_no_code_and_leaves_orjson_unloaded(self, tmp_path):
        # with numpy and the stdlib loaded, the package compiles no generated
        # source (dataclass() wrote its methods from strings), and orjson is
        # imported only by the commands that read or write a matrix or curve
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mg.__file__)))
        done = subprocess.run([sys.executable, "-c", self.STARTUP, str(tmp_path / "e.json")],
                              capture_output=True, text=True, env=env)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.split() == ["0", "False", "False"]

    LAUNCHERS = [["-c", "import sys; from moebiusgeo.cli import console_main; "
                        "sys.exit(console_main())"],
                 ["-m", "moebiusgeo.cli"]]

    @pytest.mark.parametrize("command", ["check sphere", "check l1", "exotic"])
    def test_a_launch_answers_as_main(self, command, sphere_file, l1_file, capsysbinary):
        argv = {"check sphere": ["check", sphere_file], "check l1": ["check", l1_file],
                "exotic": ["exotic", "--l", "1", "--angles", "6"]}[command]
        expected = (main(argv), *capsysbinary.readouterr())
        assert expected[0] == (2 if command == "check l1" else 0)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mg.__file__)))
        for launcher in self.LAUNCHERS:
            done = subprocess.run([sys.executable, *launcher, *argv], capture_output=True, env=env)
            assert (done.returncode, done.stdout, done.stderr) == expected


class TestLargeAndSmallScales:
    """Curve checks and inversion factors scaled by a power of two where
    their products would overflow or underflow."""

    @pytest.mark.filterwarnings("error")  # a numpy warning fails the test
    def test_segment_synth_at_1e160(self, tmp_path, capsys):
        R = 1e160
        samples = [[R, 0.0], [R / 2, R / 2], [0.0, R]]
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"R": R, "samples": samples}))
        assert main(["segment", "synth", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        space = mg.segment_from_curve(mg.QuadrantCurve(R, samples))
        assert out == TestMatrixOutput.reference(space)
        assert np.allclose(json.loads(out)["matrix"][0], [0.0, R / 2, R], rtol=1e-15)

    @pytest.mark.filterwarnings("error")  # a numpy warning fails the test
    @pytest.mark.parametrize("kind, quarters", [("segment", 1), ("circle", 2)])
    def test_synth_of_a_round_curve_at_1e200(self, kind, quarters, tmp_path, capsys):
        R = 1e200
        t = np.linspace(0.0, quarters * np.pi / 2, 9)
        data = {"R": R, "samples": (R * np.column_stack([np.cos(t), np.sin(t)])).tolist()}
        if kind == "circle":
            data["kind"] = "circle"
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(data))
        assert main([kind, "synth", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        n = 9 if kind == "segment" else 8  # a circle's last sample repeats its first point
        expected = R * np.abs(np.sin(np.subtract.outer(t[:n], t[:n])))  # |<Jp_s, p_t>| / R
        assert np.allclose(json.loads(out)["matrix"], expected, rtol=1e-14, atol=1e-14 * R)

    def test_check_beyond_half_the_largest_float_is_silent(self, tmp_path):
        # the triangle pass and line_embed sum to inf here, which they read correctly
        path = write_space(tmp_path / "big.json", np.full((3, 3), 1e308) - np.diag([1e308] * 3),
                           ["a", "b", "c"])
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mg.__file__)))
        done = subprocess.run([sys.executable, "-m", "moebiusgeo.cli", "check", path],
                              capture_output=True, text=True, env=env)
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout) == {
            "circle_quadruples": {"boundary": 0, "total": 0},
            "line_embedding": {"coordinates": None, "embeddable": False},
            "n_quadruples": 0, "ptolemy": True, "worst_margin": -0.5, "worst_quadruple": None}

    @pytest.mark.filterwarnings("error")  # a numpy warning fails the test
    @pytest.mark.parametrize("shift", [-600, 600])
    def test_invert_far_from_unit_scale(self, shift, tmp_path, capsys):
        x = np.ldexp([0.0, 1.0, 3.0], shift)
        path = write_space(tmp_path / "line.json", np.abs(np.subtract.outer(x, x)), ["p0", "p1", "p2"])
        assert main(["invert", path, "--at", "p0"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["matrix"][1][2] == math.ldexp(2.0 / 3.0, -shift)

    @pytest.mark.parametrize("kind, R, turns", [("segment", 2.0 ** -560, 1),
                                                ("circle", 2.0 ** 521, 2)],
                             ids=["segment-2^-560", "circle-2^521"])
    def test_map_of_a_synthesized_curve(self, kind, R, turns, tmp_path, capsys):
        # the cross-ratio products used to underflow at 2^-560 ("degenerate
        # anchors") and overflow at 2^521 into NaN positions, written with exit 0
        t = np.linspace(0.0, turns * np.pi / 2, 2 * turns + 1)
        data = {"R": R, "samples": (R * np.column_stack([np.cos(t), np.sin(t)])).tolist()}
        if kind == "circle":
            data["kind"] = "circle"
        curve, space = tmp_path / "curve.json", tmp_path / "m.json"
        curve.write_text(json.dumps(data))
        assert main([kind, "synth", str(curve), "--output", str(space)]) == 0
        n = 3 if kind == "segment" else 4  # a circle's last sample repeats its first point
        anchors = ",".join(f"t{i}" for i in range(3))
        assert main(["map", kind, "--src", str(space), "--dst", str(space),
                     "--src-anchors", anchors, "--dst-anchors", anchors]) == 0
        out, err = capsys.readouterr()
        assert err == ""

        def no_constant(name):
            raise ValueError(f"{name} in the map")

        pairs = json.loads(out, parse_constant=no_constant)["pairs"]
        params = np.linspace(0.0, turns, 2 * turns + 1)[:n]  # the curve's own, t0 to t(n-1)
        assert [p["position"] for p in pairs] == params.tolist()
