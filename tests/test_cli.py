"""Command-line interface: formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anisointerp
from anisointerp.cli import node_fractions, parse_kernel, read_matrix, run
from anisointerp import (BoxSplineSpec, ExperimentSpec, convergence_study, decay_profile,
                         report_to_csv, validate_matrix)

FIG1_TEXT = "2\n8 3\n0 8\n"
E2_TEXT = "2\n2 0\n0 2\n"


@pytest.fixture
def fig1(tmp_path):
    p = tmp_path / "M.txt"
    p.write_text(FIG1_TEXT)
    return str(p)


@pytest.fixture
def e2(tmp_path):
    p = tmp_path / "E2.txt"
    p.write_text(E2_TEXT)
    return str(p)


def make_samples(path, matrix_path, values):
    pm = read_matrix(matrix_path)
    with open(path, "w") as fh:
        fh.write(",".join(f"y{i+1}" for i in range(pm.d)) + ",re,im\n")
        for node, v in zip(node_fractions(pm), values):
            fh.write(",".join(str(c) for c in node)
                     + f",{v.real},{v.imag}\n")
    return pm


def test_read_matrix_and_kernel_parsing(fig1):
    pm = read_matrix(fig1)
    assert pm.m == 64
    assert parse_kernel("dirichlet") == "dirichlet"
    k = parse_kernel("2; 2,2,2")
    assert k == BoxSplineSpec(2, (2, 2, 2))


def test_pattern_emits_64_fraction_rows(fig1, capsys):
    assert run(["pattern", fig1]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "y1,y2"
    assert len(out) == 65
    # every entry is an exact fraction in [-1/2, 1/2)
    from fractions import Fraction

    for line in out[1:]:
        for tok in line.split(","):
            v = Fraction(tok)
            assert Fraction(-1, 2) <= v < Fraction(1, 2)


def test_gset_emits_integer_rows(fig1, capsys):
    assert run(["gset", fig1]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "k1,k2"
    assert len(out) == 65
    assert all(all(int(t) or True for t in line.split(",")) for line in out[1:])


def test_dft_roundtrip(e2, tmp_path, capsys):
    samples = tmp_path / "s.csv"
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    make_samples(samples, e2, vals)
    out_csv = tmp_path / "coeffs.csv"
    assert run(["dft", e2, str(samples), "--out", str(out_csv)]) == 0
    assert "roundtrip_residual" in capsys.readouterr().out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "k1,k2,re,im"
    assert len(lines) == 5


def test_interpolate_writes_series(e2, tmp_path, capsys):
    samples = tmp_path / "s.csv"
    make_samples(samples, e2, np.array([1.0, 2.0, 3.0, 4.0], dtype=complex))
    out_csv = tmp_path / "series.csv"
    assert run(["interpolate", e2, str(samples), "--kernel", "2; 2,2,2",
                "--radius", "8", "--tail-eps", "1e-3",
                "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "k1,k2,re,im"
    assert len(lines) > 4


def test_interpolate_reports_the_fallback(tmp_path, capsys):
    """On ``2 I_3`` the 3-D simplex box spline's fold vanishes on one class.
    Without ``--allow-incorrect`` that is an error naming the class; with
    it the series is written, stdout is unchanged, and stderr names the
    classes that fell back."""
    mat = tmp_path / "E3.txt"
    mat.write_text("3\n2 0 0\n0 2 0\n0 0 2\n")
    samples, out_csv = tmp_path / "s.csv", tmp_path / "series.csv"
    make_samples(samples, mat, np.ones(8, dtype=complex))
    args = ["interpolate", str(mat), str(samples), "--kernel", "3; 2,2,2,2,2,2",
            "--radius", "4", "--tail-eps", "1e-4", "--out", str(out_csv)]
    assert run(args) == 1
    assert capsys.readouterr().err == ("error: folded kernel coefficient vanishes on "
                                       "classes [(-1, -1, -1)]\n")
    assert not out_csv.exists()
    assert run(args + ["--allow-incorrect"]) == 0
    out, err = capsys.readouterr()
    assert out == f"wrote {out_csv} (729 modes)\n"
    assert err == "fallback on classes [(-1, -1, -1)]\n"
    assert len(out_csv.read_text().splitlines()) == 730


def test_sfcheck_pass_and_fail(fig1, capsys):
    code = run(["sfcheck", fig1, "--kernel", "2; 2,2,2",
                "--radius", "16", "--tail-eps", "1e-3"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["pass"] is True
    assert payload["order"] == 4.0
    assert {"order", "alpha", "q", "mode", "gamma_sf", "gamma_ip",
            "pass", "witness"} <= set(payload)

    code = run(["sfcheck", fig1, "--kernel", "2; 2,2,2", "--order", "8",
                "--radius", "16", "--tail-eps", "1e-3"])
    assert code == 2


def test_sfcheck_3d_end_to_end(tmp_path, capsys):
    """The 3-D check with perfbench's sfcheck-3d arguments (SFCHECK_ARGS)."""
    mat = tmp_path / "M3.txt"
    mat.write_text("3\n8 2 1\n0 8 2\n1 0 8\n")
    code = run(["sfcheck", str(mat), "--kernel", "3; 2,2,2,2,2,2", "--order", "4",
                "--radius", "4", "--tail-eps", "1e-4"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["pass"] is True
    assert payload["gamma_sf"] == pytest.approx(127.95508500261175, abs=1e-6)


@pytest.mark.parametrize("flags", [
    ["--kernel", "2;2,2,2", "--q", "nan"],
    ["--kernel", "2;2,2,2", "--q", "0"],
    ["--kernel", "2;2,2,2", "--alpha", "-1"],
    ["--kernel", "2;2,2,2", "--order", "nan"],
    ["--order", "-1"],  # the claimed order of the Dirichlet kernel
    ["--kernel", "2;2,2,2", "--alpha", "inf", "--q", "inf", "--tail-eps", "1e-3"],
    ["--kernel", "2;2,2,2", "--alpha", "400", "--tail-eps", "1e-3"],
    ["--kernel", "-1; 2"],  # a kernel dimension below 1
    ["--kernel", "0;"],
])
def test_sfcheck_rejects_invalid_parameters(fig1, flags):
    """Bad flags end in exit 1 and one stderr line, never a traceback; a
    kernel dimension below 1 is named."""
    src = str(Path(anisointerp.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "from anisointerp.cli import main; main()",
         "sfcheck", fig1, *flags],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    d, sep, _ = flags[1].partition(";")
    if flags[0] == "--kernel" and sep and int(d) < 1:
        assert proc.stderr == f"error: box spline dimension must be >= 1, got {d}\n"


@pytest.mark.parametrize("zmax", ["-1", "8", "40"])
def test_sfcheck_rejects_zmax_for_box_spline(fig1, zmax):
    """A box-spline kernel's shell range is its grid window, --radius; an
    explicit --zmax exits 1 as a usage error, whatever its value, and
    prints nothing to stdout."""
    src = str(Path(anisointerp.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "from anisointerp.cli import main; main()",
         "sfcheck", fig1, "--kernel", "2;2,2,2", "--tail-eps", "1e-3", "--zmax", zmax],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"error: unrecognized arguments: --zmax {zmax}" in proc.stderr, proc.stderr


def test_sfcheck_large_zmax_allocates_by_reached_shells(fig1):
    """The Dirichlet kernel's window is infinite, the largest shell range
    there is, but its modes all sit at z = 0: ``sfcheck`` allocates by the
    shells its modes reach, so it runs in 2 GiB of address space and prints
    what it prints without that limit."""
    resource = pytest.importorskip("resource")
    limit = 2 << 30
    src = str(Path(anisointerp.__file__).parents[1])

    def sfcheck(preexec_fn):
        return subprocess.run(
            [sys.executable, "-c", "from anisointerp.cli import main; main()",
             "sfcheck", fig1, "--order", "3"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
            timeout=120, preexec_fn=preexec_fn,
        )

    capped = sfcheck(lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    free = sfcheck(None)
    assert capped.returncode == free.returncode == 0, capped.stderr
    assert json.loads(capped.stdout)["pass"] is True
    assert capped.stdout == free.stdout


def test_removed_flags_are_usage_errors(fig1, tmp_path, capsys):
    """``sfcheck`` checks the shells of its kernel's window and takes no
    ``--zmax``; ``converge`` writes where its config says and takes no
    ``--csv`` or ``--svg``.  Each flag exits 1 as a usage error, and
    ``converge`` writes nothing."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"matrix = {fig1}\n")
    out = tmp_path / "out"
    for argv in (["sfcheck", fig1, "--order", "3", "--zmax", "8"],
                 ["converge", str(cfg), "--csv", str(out)],
                 ["converge", str(cfg), "--svg", str(out)]):
        assert run(argv) == 1
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert "error: unrecognized arguments: " + " ".join(argv[-2:]) in stderr, stderr
    assert not out.exists()


def test_sfcheck_dirichlet_trivial(fig1, capsys):
    code = run(["sfcheck", fig1, "--kernel", "dirichlet", "--order", "3"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["gamma_sf"] == 0.0


def test_converge_runs_and_writes(tmp_path, capsys):
    mat = tmp_path / "M21.txt"
    mat.write_text("2\n2 1\n0 2\n")
    cfg = tmp_path / "exp.cfg"
    csv = tmp_path / "out.csv"
    svg = tmp_path / "out.svg"
    text = (
        f"matrix = {mat}\n"
        "kernel = 2; 2,2,2\n"
        "scales = 0,1,2\n"
        "alpha = 0\nmu = 6\nq = 2\n"
        "radius = 8\ntail_eps = 1e-3\n"
        f"csv = {csv}\nsvg = {svg}\n"
    )
    cfg.write_text(text)
    assert run(["converge", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "verdict=pass" in out
    lines = csv.read_text().splitlines()
    assert lines[0] == "j,m,norm2,error,bound,ratio"
    assert len(lines) == 4
    assert svg.read_text().startswith("<svg")

    # no scale would pass vacuously; an infinite mu or a NaN decay gives NaNs
    csv.unlink()
    for override in ("scales =", "mu = inf", "decay = nan"):
        cfg.write_text(text + override + "\n")
        assert run(["converge", str(cfg)]) == 1
        assert not csv.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(line.startswith("error: ") for line in err), err


def test_converge_says_why_a_scale_fails(tmp_path, capsys):
    """A study that fails prints, on stderr only, one line per failing scale
    naming the condition; here both scales fail Strang-Fix (the last shell
    of ``gamma_SF`` at ``q = 1`` dominates), although every ratio is near
    1e-6, and stdout is the table alone."""
    mat = tmp_path / "M21.txt"
    mat.write_text("2\n2 1\n0 2\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"matrix = {mat}\nkernel = 2; 2,2,2\nscales = 0,1\nradius = 8\n"
                   "q = 1\nalpha = 1\nmu = 3\n")
    assert run(["converge", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "rho=2 fitted_rate=n/a verdict=fail"
    assert [line.split()[-1].startswith("ratio=") for line in out.splitlines()[1:]] == [True] * 2
    assert "FAIL" not in out
    assert err.splitlines() == [f"FAIL: j={j}: Strang-Fix: no geometric tail: last shell "
                                "dominates gamma_SF" for j in (0, 1)]


@pytest.mark.parametrize("override,name", [("scales = 1,1", "scales"),
                                           ("kmax = -1", "kmax"),
                                           ("radus = 8", "'radus'"),
                                           ("q = 0", "q")])
def test_converge_rejects_repeated_scales_and_negative_kmax(tmp_path, capsys,
                                                            override, name):
    """A repeated scale would fit a rate over one distinct ||M||, a
    negative kmax has no test function, and a misspelt key would leave its
    setting at the default: each is one error line naming it."""
    mat = tmp_path / "M21.txt"
    mat.write_text("2\n2 1\n0 2\n")
    csv = tmp_path / "out.csv"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"matrix = {mat}\nkernel = 2; 2,2,2\nradius = 8\n"
                   f"tail_eps = 1e-3\ncsv = {csv}\n{override}\n")
    assert run(["converge", str(cfg)]) == 1
    assert not csv.exists()
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and name in err, err


@pytest.mark.parametrize("kernel,spec_kernel", [("kernel = 1; 3\n", BoxSplineSpec(1, (3,))),
                                                ("s = 2\n", None)], ids=["box", "dirichlet"])
def test_converge_defaults_are_the_specs(tmp_path, capsys, kernel, spec_kernel):
    """A config without ``kernel``, ``radius`` or ``tail_eps`` gives the rows
    of a study on an :class:`ExperimentSpec` that leaves them at their
    defaults.  The 1-D kernel's tail at radius 16 (6.3e-5 at ``j = 0``)
    passes ``tail_eps = 1e-4`` but not 1e-5, so the two default
    ``tail_eps`` must agree."""
    mat = tmp_path / "M.txt"
    mat.write_text("1\n2\n")
    csv = tmp_path / "out.csv"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"matrix = {mat}\nscales = 0,1\n{kernel}csv = {csv}\n")
    assert run(["converge", str(cfg)]) == 0
    extra = {"kernel": spec_kernel} if spec_kernel else {"s": 2.0}
    spec = ExperimentSpec(base_matrix=validate_matrix([[2]]), scales=(0, 1),
                          test_function=decay_profile(1, 9.0, 16), alpha=0.0, mu=6.0, q=2.0,
                          **extra)
    report_to_csv(convergence_study(spec), tmp_path / "want.csv")
    assert csv.read_text() == (tmp_path / "want.csv").read_text()


def test_converge_names_a_missing_matrix_key(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("kernel = dirichlet\ns = 2\n")
    assert run(["converge", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: config has no 'matrix' key\n"


def test_converge_rejects_a_repeated_key(tmp_path, capsys):
    """A second ``radius`` line used to override the first in silence."""
    mat = tmp_path / "M.txt"
    mat.write_text(FIG1_TEXT)
    csv = tmp_path / "out.csv"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"matrix = {mat}\nkernel = 2; 2,2,2\nradius = 8\nradius = 4\n"
                   f"tail_eps = 1e-3\ncsv = {csv}\n")
    assert run(["converge", str(cfg)]) == 1
    assert not csv.exists()
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "'radius'" in err, err


def test_usage_error_exit_code_1(capsys):
    assert run(["no-such-command"]) == 1
    assert run([]) == 1


def test_io_error_exit_code_1(tmp_path, capsys):
    assert run(["pattern", str(tmp_path / "missing.txt")]) == 1
    for name, text in [("bad.txt", "2\n1 2\n"),  # truncated matrix
                       ("sing.txt", "2\n1 2\n2 4\n"),
                       ("zero.txt", "0\n"), ("negative.txt", "-1\n5\n")]:  # empty matrices
        path = tmp_path / name
        path.write_text(text)
        assert run(["pattern", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 5 and all(line.startswith("error: ") for line in err), err
    # a dimension below 1 is named, not reported as a count of entries
    assert err[3].endswith("dimension must be >= 1, got 0"), err
    assert err[4].endswith("dimension must be >= 1, got -1"), err


def test_sample_validation_errors(e2, tmp_path, capsys):
    pm = validate_matrix([[2, 0], [0, 2]])
    bad = tmp_path / "bad.csv"
    bad.write_text("y1,y2,re,im\n1/3,0,1,0\n")  # not a pattern node
    assert run(["dft", e2, str(bad)]) == 1
    out = tmp_path / "o.csv"
    for value in ("nan", "inf", "-inf"):
        for row in (f"0,1/2,{value},0", f"0,1/2,1,{value}"):
            lines = [",".join(map(str, node)) + ",1,0" for node in node_fractions(pm)]
            lines[2] = row  # the node (0, -1/2)
            bad.write_text("\n".join(["y1,y2,re,im"] + lines) + "\n")
            for argv in (["dft", e2, str(bad), "--out", str(out)],
                         ["interpolate", e2, str(bad), "--out", str(out)]):
                assert run(argv) == 1
                assert not out.exists()
                assert repr(row) in capsys.readouterr().err


def test_zero_denominator_in_a_sample_row(e2, tmp_path, capsys):
    """A node coordinate ``1/0`` is a bad row, named in one error line."""
    bad = tmp_path / "bad.csv"
    bad.write_text("y1,y2,re,im\n1/0,0,1,0\n")
    assert run(["dft", e2, str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: sample row '1/0,0,1,0': zero denominator"]


def test_module_entry_point_runs_main(fig1):
    """``python -m anisointerp.cli`` runs the same command as ``main()``."""
    src = str(Path(anisointerp.__file__).parents[1])
    procs = [subprocess.run([sys.executable, *how, "gset", fig1], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
             for how in (["-m", "anisointerp.cli"],
                         ["-c", "from anisointerp.cli import main; main()"])]
    assert [p.returncode for p in procs] == [0, 0]
    assert procs[0].stdout == procs[1].stdout
    assert len(procs[0].stdout.splitlines()) == 65


@pytest.mark.parametrize("tail_eps", ["nan", "-1", "0"])
def test_tail_eps_must_be_positive(fig1, tmp_path, capsys, tail_eps):
    """A NaN, negative or zero tail bound is refused by name in ``converge``
    and ``sfcheck --tail-eps``, instead of failing as an exceeded bound."""
    mat = tmp_path / "M21.txt"
    mat.write_text("2\n2 1\n0 2\n")
    csv = tmp_path / "out.csv"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"matrix = {mat}\nkernel = 2; 2,2,2\nradius = 8\n"
                   f"tail_eps = {tail_eps}\ncsv = {csv}\n")
    assert run(["converge", str(cfg)]) == 1
    assert not csv.exists()
    assert run(["sfcheck", fig1, "--kernel", "2;2,2,2", "--tail-eps", tail_eps]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 2, err
    assert all(line.startswith("error: ") and "tail_eps" in line for line in lines), err


def _one_error_line(argv) -> str:
    """Run the CLI on ``argv`` in a fresh interpreter limited to 2 GiB of
    address space; it must exit 1 with no output and exactly one stderr
    line, ``error: ...``, which is returned."""
    resource = pytest.importorskip("resource")
    limit = 2 << 30
    src = str(Path(anisointerp.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "from anisointerp.cli import main; main()", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: "), proc.stderr
    return proc.stderr


def test_oversized_radius_is_refused_before_allocating(fig1, tmp_path):
    """A radius whose grid passes ``GRID_MAX`` entries (here 596 GiB of
    shifts) exits 1 with one line naming the radius, in 2 GiB of address
    space, from both ``converge`` and ``sfcheck``."""
    mat = tmp_path / "M21.txt"
    mat.write_text("2\n2 1\n0 2\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"matrix = {mat}\nkernel = 2; 2,2,2\nradius = 100000\n"
                   f"tail_eps = 1e-4\ncsv = {tmp_path / 'out.csv'}\n")
    for argv in (["converge", str(cfg)],
                 ["sfcheck", fig1, "--kernel", "2;2,2,2", "--radius", "100000"]):
        assert _one_error_line(argv).startswith("error: radius 100000")


def test_oversized_kmax_is_refused_before_allocating(tmp_path):
    """A ``kmax`` whose test function passes ``GRID_MAX`` modes (here 596 GiB
    of frequencies) exits 1 with one line naming it, in 2 GiB of address
    space."""
    mat = tmp_path / "M21.txt"
    mat.write_text("2\n2 1\n0 2\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"matrix = {mat}\nkernel = 2; 2,2,2\nkmax = 100000\nradius = 8\n"
                   f"tail_eps = 1e-3\ncsv = {tmp_path / 'out.csv'}\n")
    assert _one_error_line(["converge", str(cfg)]).startswith("error: kmax 100000")
    assert not (tmp_path / "out.csv").exists()


def test_high_dimensional_kernel_is_refused_before_enumerating(tmp_path):
    """The simplex box spline in ``d = 8`` has 36 directions, and its order
    and tail constants would enumerate C(36, 7) + C(36, 8) = 38 M direction
    subsets (8.3 M hyperplane candidates, then 30 M bases): ``sfcheck``
    exits 1 with one line naming ``SUBSETS_MAX``, in 2 GiB of address
    space, when the order is read off the kernel and when ``--order`` is
    given (then the tail bound asks first)."""
    mat = tmp_path / "E8.txt"
    mat.write_text("8\n" + "".join(" ".join("2" if i == j else "0" for j in range(8)) + "\n"
                                   for i in range(8)))
    kernel = "8; " + ",".join(["1"] * 36)
    for argv in (["sfcheck", str(mat), "--kernel", kernel],
                 ["sfcheck", str(mat), "--kernel", kernel, "--order", "2", "--radius", "1"]):
        err = _one_error_line(argv)
        assert "36 directions in d = 8" in err and "SUBSETS_MAX" in err, err


def test_sfcheck_refuses_an_order_past_the_float_range(fig1):
    """An infinite order, or one whose bound ``kappa^-s ||M^-T h||^s``
    underflows to 0, exits 1 with one line naming the order, not numpy
    warnings and an error that blames ``alpha``; the Dirichlet kernel,
    which reproduces exactly, included."""
    box = ["--kernel", "2;2,2,2", "--radius", "8"]
    for argv, name in ((["sfcheck", fig1, *box, "--order", "inf"], "finite order s"),
                       (["sfcheck", fig1, *box, "--order", "400"], "order s = 400.0"),
                       (["sfcheck", fig1, "--order", "400"], "order s = 400.0")):
        err = _one_error_line(argv)
        assert name in err and "alpha = 0.0 with" not in err, err


def test_oversized_pattern_is_refused_before_allocating(tmp_path):
    """A pattern of ``m = 10^12`` points (tables of TiB) exits 1 with one
    line naming ``m`` and ``GRID_MAX``, in 2 GiB of address space, from
    ``gset``, a Dirichlet ``converge`` and ``sfcheck``."""
    mat = tmp_path / "big.txt"
    mat.write_text("2\n1000000 0\n0 1000000\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"matrix = {mat}\nkernel = dirichlet\ns = 2\nscales = 0\n"
                   f"csv = {tmp_path / 'out.csv'}\n")
    for argv in (["gset", str(mat)], ["converge", str(cfg)],
                 ["sfcheck", str(mat), "--order", "2"]):
        err = _one_error_line(argv)
        assert "m = 1000000000000" in err and "GRID_MAX" in err, err
    assert not (tmp_path / "out.csv").exists()


def test_converge_names_a_scale_whose_matrix_is_not_integral(tmp_path, capsys):
    """A negative scale is valid while ``2^j M_0`` stays an integer matrix;
    otherwise the one error line names ``j``."""
    csv = tmp_path / "out.csv"
    cfg = tmp_path / "exp.cfg"
    for text, scales, code in ((FIG1_TEXT, "-1,0", 1), ("2\n4 2\n0 4\n", "-1,0,1", 0)):
        mat = tmp_path / "M0.txt"
        mat.write_text(text)
        cfg.write_text(f"matrix = {mat}\nkernel = 2; 2,2,2\nscales = {scales}\nradius = 8\n"
                       f"tail_eps = 1e-3\ncsv = {csv}\n")
        assert run(["converge", str(cfg)]) == code
    out, err = capsys.readouterr()
    assert err == "error: scale matrix 2^j M_0 at j=-1 is not an integer matrix\n"
    assert "verdict=pass" in out and "  j=-1 m=4 " in out
    assert [line.split(",")[0] for line in csv.read_text().splitlines()] == ["j", "-1", "0", "1"]


def test_converge_names_a_scale_matrix_past_int64(tmp_path):
    """A scale whose ``2^j M_0`` has an entry past int64 exits 1 with one
    line naming the matrix and int64, not an ``OverflowError`` traceback."""
    mat = tmp_path / "M21.txt"
    mat.write_text("2\n2 1\n0 2\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"matrix = {mat}\nkernel = dirichlet\nscales = 62\ns = 2\n")
    err = _one_error_line(["converge", str(cfg)])
    assert f"matrix (({2**63}, {2**62}), (0, {2**63})) has an entry past int64" in err, err
