"""Correctness oracles for the benchmark's outputs.

Each check returns a list of failure messages; an empty list means the
output is correct.  ``corruption_selftest`` feeds each check a copy of a
real output with one value changed and confirms that the check rejects it,
so a check that cannot fail is caught.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

STUDY_RHO = 4.0
STUDY_SLOPE_MAX = -3.5
NODE_TOL = 1e-6
REL_TOL = 1e-6  # against the values recorded at the seed commit
ROUNDTRIP_TOL = 1e-10
# direct character sums agree with the dense transform to rounding; the
# tolerance is relative to sum |a_y|, the largest the coefficient can be
COEFF_REL_TOL = 1e-11

_SUMMARY = re.compile(r"rho=(\S+) fitted_rate=(\S+) verdict=(\w+)")


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want)


def check_study(rc: int, stdout: str, csv_text: str, svg_text: str,
                node_residuals: list[float] | None) -> list[str]:
    """``anisointerp converge`` on the acceptance configuration."""
    fails = []
    if rc != 0:
        fails.append(f"exit code {rc}")
    match = _SUMMARY.search(stdout)
    if match is None:
        return fails + ["no rho/fitted_rate/verdict line"]
    rho, rate, verdict = match.groups()
    if verdict != "pass":
        fails.append(f"verdict {verdict}")
    if float(rho) != STUDY_RHO:
        fails.append(f"rho {rho}")
    if rate == "n/a" or not float(rate) <= STUDY_SLOPE_MAX:
        fails.append(f"fitted slope {rate} above {STUDY_SLOPE_MAX}")
    if node_residuals is None or len(node_residuals) != len(REFERENCE["study"]):
        fails.append("node residuals missing")
    elif not max(node_residuals) <= NODE_TOL:
        fails.append(f"node residual {max(node_residuals):.3e}")
    lines = csv_text.strip().splitlines()
    if not lines or lines[0] != "j,m,norm2,error,bound,ratio":
        return fails + ["csv header"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(REFERENCE["study"]):
        return fails + [f"csv has {len(rows)} rows"]
    for row, ref in zip(rows, REFERENCE["study"]):
        if int(row[0]) != ref["j"] or int(row[1]) != ref["m"]:
            fails.append(f"csv row {row[:2]} is not j={ref['j']} m={ref['m']}")
        for key, col in (("error", 3), ("bound", 4)):
            if not _close(float(row[col]), ref[key]):
                fails.append(f"j={ref['j']} {key} {row[col]} != {ref[key]!r}")
    if not svg_text.startswith("<svg") or "<polyline" not in svg_text:
        fails.append("svg has no plot")
    return fails


def check_sfcheck(rc: int, stdout: str) -> list[str]:
    """``anisointerp sfcheck`` on the 3-D matrix."""
    fails = [] if rc == 0 else [f"exit code {rc}"]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return fails + ["stdout is not a JSON report"]
    if payload.get("pass") is not True:
        fails.append(f"pass is {payload.get('pass')!r}")
    gamma = payload.get("gamma_sf")
    if not isinstance(gamma, float) or not _close(gamma, REFERENCE["sfcheck-3d"]["gamma_sf"]):
        fails.append(f"gamma_sf {gamma!r} != {REFERENCE['sfcheck-3d']['gamma_sf']!r}")
    return fails


def node_numerators(pm, gens: np.ndarray, freqs: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Exact nodes ``y = M^{-1} g`` as integer numerators over ``m``, after
    checking that ``gens`` and ``freqs`` are the pattern and the generating
    set: ``m`` distinct points each in ``[-1/2, 1/2)^d``."""
    fails = []
    half = Fraction(1, 2)
    nodes = [pm.inv_apply(tuple(int(x) for x in g)) for g in gens]
    pmt = pm.transposed()
    duals = [pmt.inv_apply(tuple(int(x) for x in h)) for h in freqs]
    for label, points in (("pattern", nodes), ("generating set", duals)):
        if len(points) != pm.m or len(set(points)) != pm.m:
            fails.append(f"{label} has {len(set(points))} distinct points, not {pm.m}")
        if not all(-half <= c < half for p in points for c in p):
            fails.append(f"{label} leaves [-1/2, 1/2)^d")
    num = np.array([[int(c * pm.m) for c in y] for y in nodes], dtype=np.int64)
    return num, fails


def check_roundtrip(pm, num: np.ndarray, freqs: np.ndarray, samples: np.ndarray,
                    coeffs: np.ndarray, back: np.ndarray, checked) -> list[str]:
    """One forward+inverse roundtrip: the residual, and the forward
    coefficients at ``checked`` against direct character sums
    ``sum_y a_y exp(-2 pi i h^T y)`` with the exact phase ``h^T y mod 1``."""
    fails = []
    resid = float(np.abs(back - samples).max())
    if not resid <= ROUNDTRIP_TOL:
        fails.append(f"m={pm.m} roundtrip residual {resid:.3e}")
    residues = (freqs[checked] @ num.T) % pm.m
    direct = np.exp(-2j * np.pi * residues / pm.m) @ samples
    tol = COEFF_REL_TOL * float(np.abs(samples).sum())
    err = np.abs(coeffs[checked] - direct)
    if not err.max() <= tol:
        fails.append(f"m={pm.m} coefficient off its character sum by {err.max():.3e}")
    return fails


def corruption_selftest(workload: str, outputs: dict) -> list[str]:
    """Run the workload's check on a copy of a real, passing output with one
    value changed; returns a message for every corruption the check missed.
    Without a passing output there is nothing to corrupt."""
    missed = []
    if not outputs:
        return missed
    if workload == "study":
        lines = outputs["csv_text"].splitlines()
        cells = lines[-1].split(",")
        cells[3] = repr(float(cells[3]) * (1 + 100 * REL_TOL))
        bad_csv = "\n".join(lines[:-1] + [",".join(cells)]) + "\n"
        if not check_study(0, outputs["stdout"], bad_csv, outputs["svg_text"],
                           outputs["node_residuals"]):
            missed.append("study: a changed csv error value passed")
    elif workload == "sfcheck-3d":
        payload = json.loads(outputs["stdout"])
        payload["gamma_sf"] *= 1 + 100 * REL_TOL
        if not check_sfcheck(0, json.dumps(payload)):
            missed.append("sfcheck-3d: a changed gamma_sf passed")
    else:
        pm, num, freqs, samples, coeffs, back, checked = outputs["roundtrip"]
        bad = coeffs.copy()
        bad[checked[0]] += 1e-6 * float(np.abs(samples).sum())
        if not check_roundtrip(pm, num, freqs, samples, bad, back, checked):
            missed.append("transform: a changed coefficient passed")
        bad = back.copy()
        bad[0] += 1e-6
        if not check_roundtrip(pm, num, freqs, samples, coeffs, bad, checked):
            missed.append("transform: a changed inverse value passed")
    return missed

