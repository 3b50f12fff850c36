"""Command-line front end: reproducible runs of every pipeline stage.

Subcommands
-----------
pattern      emit the pattern ``P_S(M)`` as exact fractions
gset         emit the generating set ``G_S(M^T)``
dft          roundtrip a node-sample CSV through the pattern DFT
interpolate  build the interpolating series from samples and a kernel
sfcheck      verify the Strang-Fix conditions, print the report
converge     run a dilation convergence study (CSV + SVG output)

Matrix files contain ``d`` on the first line followed by ``d`` rows of
integers.  Sample CSVs are ``y1,...,yd,re,im`` with node coordinates as
exact fractions ``p/q``; coefficient CSVs are ``k1,...,kd,re,im``.
Exit codes: 0 success / verification passed, 2 failed verification,
1 usage or I/O errors.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from fractions import Fraction

import numpy as np

from .boxspline import BoxSplineSpec
from .bounds import (
    ExperimentSpec,
    build_interpolant,
    convergence_study,
    decay_profile,
    kernel_order,
    report_to_csv,
    report_to_svg,
)
from .errors import AnisoError
from .interp import interpolation_operator
from .intlat import PatternMatrix, validate_matrix
from .ptransform import (
    FourierSeries,
    SampleVector,
    dft_forward,
    dft_inverse,
    gset_freqs,
    pattern_generators,
    series_to_csv,
)
from .strangfix import SFParams, verify_sfc


class _Parser(argparse.ArgumentParser):
    """argparse variant using exit code 1 for usage errors (2 is reserved
    for failed verifications)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def read_matrix(path) -> PatternMatrix:
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"empty matrix file {path}")
    d = int(tokens[0])
    if d < 1:
        raise ValueError(f"matrix file {path}: dimension must be >= 1, got {d}")
    nums = [int(t) for t in tokens[1:]]
    if len(nums) != d * d:
        raise ValueError(f"matrix file {path}: expected {d * d} entries, "
                         f"got {len(nums)}")
    return validate_matrix([nums[i * d:(i + 1) * d] for i in range(d)])


def parse_kernel(text: str):
    """Parse ``dirichlet`` or the box-spline format ``d; p1,p2,...``."""
    text = text.strip()
    if text.lower() == "dirichlet":
        return "dirichlet"
    head, sep, rest = text.partition(";")
    if not sep:
        raise ValueError(f"kernel spec {text!r}: expected 'dirichlet' or "
                         "'d; p1,p2,...'")
    d = int(head)
    p = tuple(int(t) for t in rest.replace(",", " ").split())
    return BoxSplineSpec(d, p)


def node_fractions(pm: PatternMatrix) -> list[tuple[Fraction, ...]]:
    """Pattern nodes ``M^{-1} g`` as exact fractions, canonical order."""
    return [pm.inv_apply(g) for g in pattern_generators(pm).tolist()]


def read_samples(path, pm: PatternMatrix) -> SampleVector:
    """Read a ``y1,...,yd,re,im`` fraction CSV into canonical node order."""
    index = {node: i for i, node in enumerate(node_fractions(pm))}
    values = np.zeros(pm.m, dtype=np.complex128)
    seen = np.zeros(pm.m, dtype=bool)
    with open(path) as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if rows and rows[0].lower().startswith("y1"):
        rows = rows[1:]
    for line in rows:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != pm.d + 2:
            raise ValueError(f"sample row {line!r}: expected {pm.d + 2} fields")
        try:
            y = tuple(Fraction(p) for p in parts[:pm.d])
        except ZeroDivisionError:
            raise ValueError(f"sample row {line!r}: zero denominator") from None
        # shift into the canonical half-open box [-1/2, 1/2)
        y = tuple(((c + Fraction(1, 2)) % 1) - Fraction(1, 2) for c in y)
        if y not in index:
            raise ValueError(f"sample row {line!r}: not a pattern node")
        i = index[y]
        if seen[i]:
            raise ValueError(f"duplicate sample for node {y}")
        seen[i] = True
        values[i] = complex(float(parts[pm.d]), float(parts[pm.d + 1]))
        if not cmath.isfinite(values[i]):
            raise ValueError(f"sample row {line!r}: value is not finite")
    if not seen.all():
        missing = node_fractions(pm)[int(np.flatnonzero(~seen)[0])]
        raise ValueError(f"missing sample for node {missing}")
    return SampleVector(values, pm)


def _cmd_pattern(args) -> int:
    pm = read_matrix(args.matrix)
    nodes = node_fractions(pm)  # before any output, which an error would cut short
    print(",".join(f"y{i + 1}" for i in range(pm.d)))
    for node in nodes:
        print(",".join(str(c) for c in node))
    return 0


def _cmd_gset(args) -> int:
    pm = read_matrix(args.matrix)
    hs = gset_freqs(pm)
    print(",".join(f"k{i + 1}" for i in range(pm.d)))
    for h in hs:
        print(",".join(str(int(x)) for x in h))
    return 0


def _cmd_dft(args) -> int:
    pm = read_matrix(args.matrix)
    samples = read_samples(args.samples, pm)
    fhat = dft_forward(samples)
    back = dft_inverse(fhat)
    resid = float(np.abs(back.values - samples.values).max())
    if args.out:
        series = FourierSeries(gset_freqs(pm).copy(), fhat.values)
        with open(args.out, "w") as fh:
            fh.write(series_to_csv(series))
    print(f"m={pm.m} roundtrip_residual={resid:.3e}")
    return 0 if resid < 1e-10 else 2


def _cmd_interpolate(args) -> int:
    pm = read_matrix(args.matrix)
    samples = read_samples(args.samples, pm)
    kernel = parse_kernel(args.kernel)
    ifun = build_interpolant(kernel, pm, args.radius, args.tail_eps,
                             allow_incorrect=args.allow_incorrect)
    series = interpolation_operator(samples, ifun).prune()
    with open(args.out, "w") as fh:
        fh.write(series_to_csv(series))
    print(f"wrote {args.out} ({len(series)} modes)")
    if ifun.incorrect_modes:
        print(f"fallback on classes {ifun.incorrect_modes}", file=sys.stderr)
    return 0


def _cmd_sfcheck(args) -> int:
    pm = read_matrix(args.matrix)
    kernel = parse_kernel(args.kernel)
    params = SFParams(s=kernel_order(kernel, args.order), alpha=args.alpha, q=args.q,
                      mode=args.mode)
    ifun = build_interpolant(kernel, pm, args.radius, args.tail_eps)
    report = verify_sfc(ifun, params)
    print(json.dumps(report.to_json_dict(), indent=2))
    for msg in report.failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 0 if report.passed else 2


# the keys a ``converge`` config may set; any other key is an error
CONVERGE_KEYS = ("matrix", "kernel", "scales", "decay", "kmax", "alpha", "mu", "q",
                 "s", "radius", "tail_eps", "csv", "svg")


def _cmd_converge(args) -> int:
    cfg = {}
    with open(args.config) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"config line {line!r}: expected key = value")
            key = key.strip()
            if key not in CONVERGE_KEYS:
                raise ValueError(f"config key {key!r} is unknown; "
                                 f"expected one of {', '.join(CONVERGE_KEYS)}")
            if key in cfg:
                raise ValueError(f"config key {key!r} is set twice")
            cfg[key] = value.strip()
    if "matrix" not in cfg:
        raise ValueError("config has no 'matrix' key")

    pm = read_matrix(cfg["matrix"])
    scales = tuple(int(t) for t in cfg.get("scales", "0,1,2,3")
                   .replace(",", " ").split())
    q = float(cfg.get("q", "2"))
    spec = ExperimentSpec(
        base_matrix=pm,
        scales=scales,
        test_function=decay_profile(pm.d, float(cfg.get("decay", "9")),
                                    int(cfg.get("kmax", "16"))),
        alpha=float(cfg.get("alpha", "0")),
        mu=float(cfg.get("mu", "6")),
        q=q,
        # a key left out takes ExperimentSpec's default
        **{key: parse(cfg[key]) for key, parse in (("kernel", parse_kernel), ("s", float),
                                                   ("radius", int), ("tail_eps", float))
           if key in cfg},
    )
    report = convergence_study(spec)
    if cfg.get("csv"):
        report_to_csv(report, cfg["csv"])
    if cfg.get("svg"):
        report_to_svg(report, cfg["svg"])
    rate = ("n/a" if report.fitted_rate is None
            else f"{report.fitted_rate:.3f}")
    print(f"rho={report.rho:g} fitted_rate={rate} "
          f"verdict={'pass' if report.verdict else 'fail'}")
    for r in report.rows:
        print(f"  j={r.j} m={r.m} norm2={r.norm2:.6g} error={r.error:.6e} "
              f"bound={r.bound:.6e} ratio={r.ratio:.6e}")
        if r.failure:
            print(f"FAIL: j={r.j}: {r.failure}", file=sys.stderr)
    return 0 if report.verdict else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="anisointerp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pattern", help="emit the pattern P_S(M) as fractions")
    p.add_argument("matrix", help="matrix file (d, then d rows)")
    p.set_defaults(func=_cmd_pattern)

    p = sub.add_parser("gset", help="emit the generating set G_S(M^T)")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_gset)

    p = sub.add_parser("dft", help="roundtrip a sample CSV through the DFT")
    p.add_argument("matrix")
    p.add_argument("samples", help="CSV y1,...,yd,re,im with fractions")
    p.add_argument("--out", help="write the coefficient CSV here")
    p.set_defaults(func=_cmd_dft)

    p = sub.add_parser("interpolate",
                       help="samples + kernel -> interpolating series CSV")
    p.add_argument("matrix")
    p.add_argument("samples")
    p.add_argument("--kernel", default="dirichlet",
                   help="'dirichlet' or 'd; p1,p2,...'")
    p.add_argument("--radius", type=int, default=16)
    p.add_argument("--tail-eps", dest="tail_eps", type=float, default=1e-4)
    p.add_argument("--allow-incorrect", action="store_true",
                   help="fall back to incorrect interpolation on "
                        "degenerate classes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser("sfcheck", help="verify the Strang-Fix conditions")
    p.add_argument("matrix")
    p.add_argument("--kernel", default="dirichlet")
    p.add_argument("--order", type=float, default=None,
                   help="claimed order s (default: box-spline order)")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--mode", choices=("strict", "relaxed"), default="strict")
    p.add_argument("--radius", type=int, default=16,
                   help="box-spline radius; the shells ||z||_inf <= radius are checked")
    p.add_argument("--tail-eps", dest="tail_eps", type=float, default=1e-4)
    p.set_defaults(func=_cmd_sfcheck)

    p = sub.add_parser("converge", help="run a dilation convergence study")
    p.add_argument("config", help="key = value lines; keys: " + ", ".join(CONVERGE_KEYS)
                   + " (csv and svg name the output files)")
    p.set_defaults(func=_cmd_converge)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (AnisoError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
