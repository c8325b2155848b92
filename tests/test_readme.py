"""The README's library quick tour runs and its commented values hold."""

import math
import pathlib

import numpy as np

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    text = README.read_text()
    start = text.index("```python\n", text.index("## Library quick tour")) + len("```python\n")
    return text[start:text.index("```", start)]


def test_quick_tour_values():
    ns = {}
    exec(compile(quick_tour(), str(README), "exec"), ns)
    mg = ns["mg"]
    square, line, curve, back = ns["square"], ns["line"], ns["curve"], ns["back"]
    # as the comment prints them: the middle entry is one ulp above 0.5
    entries = mg.crt(square, (0, 1, 2, 3)).entries
    assert np.abs(entries - [0.25, 0.5, 0.25]).max() <= 2.0 ** -52
    assert mg.is_circle_quadruple(square, (0, 1, 2, 3)) is True
    assert ns["inv"].omega_label() == "p0"
    assert mg.bound_at(line, "p0").dist.max() <= 1
    assert np.abs(back.samples - curve.samples).max() <= 1e-12
    report = ns["report"]
    assert abs(report.ns_ratio - 1.0 / math.cosh(1.0)) <= 1e-12
    assert abs(report.equator_ratio - math.exp(-1.0)) <= 1e-12
