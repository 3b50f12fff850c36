"""One repetition of a workload, in a fresh process.

Usage: python3 child.py MANIFEST OUT.json [--setup-only] [--trace]

Set-up starts before ``import anisointerp`` and ends when the workload's
matrices are validated and their pattern and generating set enumerated.
Then one unit of the workload's fixed work runs, timed, optionally under the
call tracer; then the outputs are checked.  Results go to ``OUT.json``.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402

# lru-cached functions whose cache_info() is summed into cache.hits/misses;
# one that no longer exists counts nothing
CACHED = (("ptransform", "pattern_generators"), ("ptransform", "gset_freqs"),
          ("ptransform", "gset_index"), ("spectral", "spectral_data"))


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


# span name -> counts recorded per call (see spans.Tracer)
COUNTERS = {
    "ptransform.freq_class_indices": lambda a, kw, r: {"rows": len(_first(a, kw))},
    "intlat.reduce_freq_many": lambda a, kw, r: {"rows": len(_first(a, kw))},
    "ptransform.series_add": lambda a, kw, r: {"rows": len(a[0]) + len(a[1])},
    "fspaces.weights_many": lambda a, kw, r: {"rows": len(_first(a, kw))},
    "spectral.inv_t_apply": lambda a, kw, r: {"rows": len(_first(a, kw))},
    "strangfix.verify_sfc": lambda a, kw, r: {"modes": len(_first(a, kw).series)},
    "boxspline.periodize": lambda a, kw, r: {"modes": len(r)},
    # the dense matrix each call hands to a matvec, computed from m
    "ptransform.phase_matrix": lambda a, kw, r: {"bytes_computed": 16 * _first(a, kw).m ** 2},
}


def _cache_totals() -> dict:
    infos = [getattr(sys.modules.get(f"anisointerp.{mod}"), name, None)
             for mod, name in CACHED]
    infos = [f.cache_info() for f in infos if hasattr(f, "cache_info")]
    return {"hits": sum(i.hits for i in infos), "misses": sum(i.misses for i in infos)}


def _run_cli(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(argv)
    return rc, out.getvalue()


def run_study(ai, man, pms):
    from anisointerp import bounds, cli

    for path in (man["csv"], man["svg"]):
        Path(path).unlink(missing_ok=True)
    reports = []
    orig = bounds.convergence_study

    def capture(spec):  # the CLI prints no node residual; keep the report
        reports.append(orig(spec))
        return reports[-1]

    hooked = [mod for mod in (bounds, cli) if getattr(mod, "convergence_study", None) is orig]
    for mod in hooked:
        mod.convergence_study = capture
    try:
        t0 = time.perf_counter()
        rc, stdout = _run_cli(cli, man["argv"])
        elapsed = time.perf_counter() - t0
    finally:
        for mod in hooked:
            mod.convergence_study = orig
    return elapsed, (elapsed, rc, stdout, reports)


def judge_study(ai, man, pms, raw):
    elapsed, rc, stdout, reports = raw
    texts = [Path(p).read_text() if Path(p).exists() else ""
             for p in (man["csv"], man["svg"])]
    outputs = {
        "stdout": stdout, "csv_text": texts[0], "svg_text": texts[1],
        "node_residuals": [r.node_residual for r in reports[0].rows] if reports else None,
    }
    fails = oracles.check_study(rc, **outputs)
    return [(elapsed, fails)], ({} if fails else outputs)


def run_sfcheck(ai, man, pms):
    from anisointerp import cli

    t0 = time.perf_counter()
    rc, stdout = _run_cli(cli, man["argv"])
    elapsed = time.perf_counter() - t0
    return elapsed, (elapsed, rc, stdout)


def judge_sfcheck(ai, man, pms, raw):
    elapsed, rc, stdout = raw
    fails = oracles.check_sfcheck(rc, stdout)
    return [(elapsed, fails)], ({} if fails else {"stdout": stdout})


def run_transform(ai, man, pms):
    samples = {name: np.load(path) for name, path in man["samples"].items()}
    done = []
    t_loop = time.perf_counter()
    for name, row, checked in man["ops"]:
        s = ai.SampleVector(samples[name][row], pms[name])
        t0 = time.perf_counter()
        try:
            fwd = ai.dft_forward(s)
            back = ai.dft_inverse(fwd)
        except Exception as exc:  # counted as a failed roundtrip
            done.append((time.perf_counter() - t0, name, row, checked, None, repr(exc)))
            continue
        done.append((time.perf_counter() - t0, name, row, checked, fwd.values, back.values))
    return time.perf_counter() - t_loop, (samples, done)


def judge_transform(ai, man, pms, raw):
    samples, done = raw
    exact = {name: oracles.node_numerators(pm, ai.pattern_generators(pm), ai.gset_freqs(pm))
             for name, pm in pms.items()}
    ops, outputs = [], {}
    for elapsed, name, row, checked, coeffs, back in done:
        if coeffs is None:
            ops.append((elapsed, [f"raised {back}"]))
            continue
        pm, (num, fails) = pms[name], exact[name]
        freqs, a = ai.gset_freqs(pm), samples[name][row]
        fails = fails + oracles.check_roundtrip(pm, num, freqs, a, coeffs, back, checked)
        ops.append((elapsed, fails))
        if not fails:
            outputs["roundtrip"] = (pm, num, freqs, a, coeffs, back, checked)
    return ops, outputs


WORK = {
    "study": (run_study, judge_study),
    "sfcheck-3d": (run_sfcheck, judge_sfcheck),
    "transform": (run_transform, judge_transform),
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _install_tracer(ai):
    import spans

    tracer = spans.Tracer(counters=COUNTERS)
    tracer.install({n: m for n, m in sys.modules.items()
                    if n == "anisointerp" or n.startswith("anisointerp.")},
                   methods=(("ptransform.series_add", ai.FourierSeries, "__add__"),))
    return tracer


def main(argv) -> int:
    manifest, out_path = Path(argv[0]), Path(argv[1])
    setup_only, traced = "--setup-only" in argv, "--trace" in argv
    man = json.loads(manifest.read_text())

    import anisointerp as ai
    from anisointerp import cli

    cache0 = _cache_totals()  # before wrapping, which hides cache_info()
    # traced repetitions also trace set-up, where enumeration runs
    tracer = _install_tracer(ai) if traced else None
    try:
        pms = {name: cli.read_matrix(path) for name, path in man["matrices"].items()}
        for pm in pms.values():
            ai.pattern_generators(pm)
            ai.gset_freqs(pm)
        setup_s = time.perf_counter() - T_START
        if setup_only:
            out_path.write_text(json.dumps({"setup_s": setup_s}))
            return 0
        run, judge = WORK[man["workload"]]
        wall_s, raw = run(ai, man, pms)
    finally:
        not_restored = tracer.uninstall() if tracer else []
    peak_rss_mb = _peak_rss_mb()
    cache1 = _cache_totals()
    ops, outputs = judge(ai, man, pms, raw)
    result = dict(
        setup_s=setup_s,
        wall_s=wall_s,
        peak_rss_mb=peak_rss_mb,
        op_latencies=[op[0] for op in ops],
        op_failures=[op[1] for op in ops],
        selftest=oracles.corruption_selftest(man["workload"], outputs) + [
            f"tracer left {name} wrapped" for name in not_restored],
        cache={k: cache1[k] - cache0[k] for k in cache1},
    )
    if tracer:
        result["spans"] = tracer.stats()
        result["overlap"] = {"bounds.convergence_study": tracer.overlap("bounds.convergence_study")}
    out_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
