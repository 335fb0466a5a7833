"""Margins of every builder that edits a second derivative on a window,
pinned to recorded values.

``pinned_margins.json`` next to this file holds the recorded margins. Each
must be reproduced within 1e-12 * max(1, |ref|); the fibre-disc warp at
t0 = 1.3 gets the looser bound FIBRE_NARROW_TOL because its narrow plateau
window has a numerically integrated mass that differs from the analytic one
by about 3e-11. Regenerate the file with

    PYTHONPATH=src python tests/test_pinned_margins.py

only when a margin is meant to move, and record which one and by how much.
The regeneration keeps every recorded value that the test still accepts, so
it rewrites only the margins that moved beyond the tolerance (and entries
whose labels changed); floor-level moves of the last digits on another host
leave the file as it is.
"""

import json
import math
import os
import sys

import pytest

from warpbench import blocks as bk
from warpbench import curves as cv
from warpbench import feasibility as fs
from warpbench.scenarios import DEFAULT_PIPELINE_PARAMS

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "pinned_margins.json")
TOL = 1e-12
FIBRE_NARROW_TOL = 1e-10

README_CONE = dict(n=4, K=0.9, eps1=0.1, eps2=0.1, delta=0.02)
README_HANDLE1 = dict(n=4, K=0.9, lambda1=0.985, lambda2=0.99, eps1=0.01,
                      eps2=0.1, delta=0.05)
FIBRE_T0 = {"pi/2": math.pi / 2.0, "1.3": 1.3, "2.5": 2.5}


def _margins(report):
    return [[m.label, m.min] for m in report.margins]


def _join_coefficients(left, right, window, band=(-2.0, 2.0)):
    out = cv.smooth_join(left, right, window, band, band_tol=1e-2)
    return [["c1", out.info["c1"]], ["c2", out.info["c2"]]]


def collect() -> dict:
    """Name -> [[label, value], ...] for every pinned scenario."""
    out = {}
    for t in (0.0, 0.5, 1.0):
        out[f"cone:t={t}"] = _margins(
            bk.build_cone_metric(t=t, **README_CONE))
    out["handle1"] = _margins(bk.build_handle1(**README_HANDLE1))

    P = DEFAULT_PIPELINE_PARAMS
    out["handle2"] = _margins(bk.build_handle2(
        fs._default_collar_profile(), **P["handle2"]))
    out["assemble_handle"] = _margins(bk.assemble_handle(
        P["q"], P["K"], P["handle1"], P["handle2"]))

    for d in (2, 4, 8):
        out[f"projective:d={d}"] = _margins(
            bk.projective_family_check(d, 2, 0.5))
    for eps in (0.1, 0.2):
        out[f"wu-blended:eps={eps}"] = _margins(
            bk.wu_family_check("blended", eps=eps))
    for name, t0 in FIBRE_T0.items():
        out[f"fibre-disc:t0={name}"] = _margins(
            bk.build_fibre_disc_warp(3, t0))

    left = cv.sine_curve(1.0, 1.0, 0.0, (-0.6, 1.2))
    right = cv.sine_curve(1.0, 0.9, 0.0, (-0.6, 1.4))
    out["smooth_join:two-sines"] = _join_coefficients(left, right,
                                                      (-0.3, 0.9))
    out["smooth_join:lines"] = _join_coefficients(
        cv.line_curve(0.0, 1.0, (-1.0, 1.0)),
        cv.line_curve(0.0, -1.0, (-1.0, 1.0)), (-0.2, 0.2),
        band=(-100.0, 100.0))
    return out


def _load():
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def current():
    return collect()


def _tolerance(name):
    return FIBRE_NARROW_TOL if name == "fibre-disc:t0=1.3" else TOL


def _within(value, want, name):
    return abs(value - want) <= _tolerance(name) * max(1.0, abs(want))


def regenerated(recorded: dict, current: dict) -> dict:
    """``current`` with each value the test accepts replaced by its
    recorded value, so only moves beyond the tolerance are rewritten."""
    out = {}
    for name, entries in current.items():
        ref = recorded.get(name)
        if ref is None or [l for l, _ in ref] != [l for l, _ in entries]:
            out[name] = entries
            continue
        out[name] = [[label, want if _within(value, want, name) else value]
                     for (label, value), (_, want) in zip(entries, ref)]
    return out


@pytest.mark.parametrize(
    "name", sorted(_load()) if os.path.exists(DATA) else [])
def test_margins_match_recorded_values(name, current):
    ref = _load()[name]
    got = current[name]
    assert [label for label, _ in got] == [label for label, _ in ref]
    for (label, value), (_, want) in zip(got, ref):
        assert _within(value, want, name), \
            f"{name} {label}: {value!r}, recorded {want!r}"


def test_regeneration_rewrites_only_moves_beyond_the_tolerance():
    recorded = {"a": [["m", 1.0], ["n", 2.0]], "b": [["m", 1.0]],
                "fibre-disc:t0=1.3": [["m", 1.0]]}
    current = {"a": [["m", 1.0 + 1e-13], ["n", 2.0 + 1e-9]],
               "b": [["k", 1.0]], "c": [["m", 3.0]],
               "fibre-disc:t0=1.3": [["m", 1.0 + 1e-11]]}
    assert regenerated(recorded, current) == {
        "a": [["m", 1.0], ["n", 2.0 + 1e-9]], "b": [["k", 1.0]],
        "c": [["m", 3.0]], "fibre-disc:t0=1.3": [["m", 1.0]]}


def test_fibre_disc_quarter_circle_within_1e13(current):
    ref = _load()["fibre-disc:t0=pi/2"]
    for (label, value), (_, want) in zip(current["fibre-disc:t0=pi/2"],
                                         ref):
        assert abs(value - want) <= 1e-13, label


if __name__ == "__main__":
    data = collect()
    if os.path.exists(DATA):
        data = regenerated(_load(), data)
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print(f"wrote {DATA}", file=sys.stderr)
