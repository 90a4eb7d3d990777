import argparse
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
import bernsimplex
from bernsimplex import cli, ineq, monotone, simplex, specfun, spoly
from bernsimplex.cli import main


def read(path):
    with open(path) as fh:
        return fh.read()


def tmp_leftovers(directory):
    return [p for p in os.listdir(directory) if p.endswith(".tmp")]


class TestExitCodes:
    def test_cm_scan_pass(self, tmp_path):
        out = tmp_path / "cm.csv"
        rc = main(["cm-scan", "--d", "2", "--instances", "3",
                   "--grid", "0.5:3:0.5", "--seed", "1", "--out", str(out)])
        assert rc == 0
        text = read(out)
        assert text.startswith("instance,a,order,value,margin")
        assert "# summary: pass" in text

    def test_cm_scan_corrupt_fails(self, tmp_path):
        out = tmp_path / "cm.csv"
        rc = main(["cm-scan", "--d", "2", "--instances", "2",
                   "--grid", "0.5:3:0.5", "--seed", "1",
                   "--self-test-corrupt", "--out", str(out)])
        assert rc == 1
        assert "# summary: fail" in read(out)

    def test_usage_error_no_output(self, tmp_path):
        out = tmp_path / "cm.csv"
        rc = main(["cm-scan", "--d", "0", "--instances", "3",
                   "--grid", "0.5:3:0.5", "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_bad_grid_spec(self, tmp_path):
        rc = main(["cm-scan", "--grid", "oops", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_grid_over_cap_not_built(self, tmp_path):
        # 1e13 points: rejected from the spec alone, before any list is built
        out = tmp_path / "cm.csv"
        assert main(["cm-scan", "--grid", "0.1:1e12:0.1", "--out", str(out)]) == 2
        assert not out.exists()

    def test_overflowing_grid_point(self, tmp_path, capsys):
        # polygamma's asymptotic series overflows at a = 1e200
        out = tmp_path / "cm.csv"
        assert main(["cm-scan", "--instances", "1", "--grid", "1e200:1e200:1",
                     "--out", str(out)]) == 2
        assert "largest point is 1e+200" in capsys.readouterr().err
        assert not out.exists()
        assert tmp_leftovers(tmp_path) == []

    def test_nan_derivative_fails_with_nan_violation(self, tmp_path, capsys, nan_derivative):
        out = tmp_path / "cm.csv"
        assert main(["cm-scan", "--instances", "2", "--grid", "0.5:1:0.5",
                     "--out", str(out)]) == 1
        assert "fail over 2 instances, max_violation=nan" in capsys.readouterr().out
        assert read(out).splitlines()[-1] == "# summary: fail, max_violation=nan"

    def test_unknown_subcommand(self):
        assert main(["no-such-command"]) == 2

    def test_seed_only_where_read(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["s-table", "--seed", "3", "--out", str(out)]) == 2
        assert not out.exists()

    def test_s_table_other_rs_points_to_lclt(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["s-table", "--r", "2", "--s", "3", "--out", str(out)]) == 2
        assert "lclt-compare" in capsys.readouterr().err
        assert not out.exists()

    def test_s_table_capacity_before_other_work(self, tmp_path, monkeypatch, capsys):
        # the integral's capacity check runs before the limit is formed
        def limit(d):
            raise AssertionError("asymptotic_constant ran before the capacity check")

        monkeypatch.setattr(spoly, "asymptotic_constant", limit)
        out = tmp_path / "s.csv"
        assert main(["s-table", "--d", "100000000", "--m-list", "1", "--out", str(out)]) == 2
        assert "exceeds the cap" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd, m_list", [("s-table", "40,20"), ("lclt-compare", "64,16"),
                                              ("lclt-compare", "16,16")])
    def test_m_list_must_increase(self, tmp_path, cmd, m_list):
        out = tmp_path / "o.csv"
        assert main([cmd, "--m-list", m_list, "--out", str(out)]) == 2
        assert not out.exists()
        assert tmp_leftovers(tmp_path) == []

    @pytest.mark.parametrize("alpha", ["1,inf", "1,nan"])
    def test_sample_gen_non_finite_alpha(self, tmp_path, capsys, alpha):
        out = tmp_path / "s.csv"
        assert main(["sample-gen", "--alpha", alpha, "--n", "3", "--out", str(out)]) == 2
        assert "alpha" in capsys.readouterr().err
        assert not out.exists()
        assert tmp_leftovers(tmp_path) == []

    def test_samples_is_a_directory(self, tmp_path):
        out = tmp_path / "o.csv"
        assert main(["estimate", "--samples", str(tmp_path), "--out", str(out)]) == 2
        assert not out.exists()
        assert tmp_leftovers(tmp_path) == []

    def test_out_in_missing_directory(self, tmp_path):
        out = tmp_path / "no_such_dir" / "x.csv"
        assert main(["s-table", "--out", str(out)]) == 2
        assert not out.parent.exists()
        assert tmp_leftovers(tmp_path) == []

    @pytest.mark.parametrize("out", [os.path.join("dir_missing", "x.csv"), ""])
    def test_io_error_names_out_path(self, tmp_path, monkeypatch, capsys, out):
        # the message names --out, not the temp file written next to it
        monkeypatch.chdir(tmp_path)
        assert main(["cm-scan", "--d", "1", "--instances", "1", "--grid", "0.1:1:0.5",
                     "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] ") and err.endswith(f": {out!r}\n"), err
        assert os.listdir(tmp_path) == []

    def test_ineq_fuzz_pass_and_corrupt(self, tmp_path):
        out = tmp_path / "fuzz.csv"
        assert main(["ineq-fuzz", "--trials", "50", "--dmax", "3",
                     "--seed", "7", "--out", str(out)]) == 0
        assert "# summary: pass" in read(out)
        assert main(["ineq-fuzz", "--trials", "50", "--dmax", "3", "--seed", "7",
                     "--self-test-corrupt", "--out", str(out)]) == 1

    def test_ineq_fuzz_zero_trials(self, tmp_path):
        assert main(["ineq-fuzz", "--trials", "0",
                     "--out", str(tmp_path / "f.csv")]) == 2

    @pytest.mark.parametrize("argv, name", [
        (["s-table", "--m-list", "0,5"], "m"),
        (["s-table", "--d", "0"], "d"),
        (["lclt-compare", "--m-list", "0,16"], "m"),
        (["sample-gen", "--n", "0"], "n"),
        (["ineq-fuzz", "--dmax", "0"], "dmax"),
        (["ineq-fuzz", "--trials", "0"], "trials"),
        (["estimate", "--m", "0", "--samples", "samples.csv"], "m"),
        (["cm-scan", "--d", "0"], "d"),
        (["cm-scan", "--instances", "0"], "instances"),
        (["lclt-compare", "--d", "0"], "d"),
        (["lclt-compare", "--r", "0"], "r"),
        (["lclt-compare", "--s", "0"], "s"),
        (["identity-check", "--d-max", "0"], "d_max"),
        (["identity-check", "--m-max", "0"], "m_max"),
    ], ids=["s-table-m", "s-table-d", "lclt-compare-m", "sample-gen-n", "ineq-fuzz-dmax",
            "ineq-fuzz-trials", "estimate-m", "cm-scan-d", "cm-scan-instances",
            "lclt-compare-d", "lclt-compare-r", "lclt-compare-s", "identity-check-d-max",
            "identity-check-m-max"])
    def test_zero_integer_flag(self, tmp_path, monkeypatch, capsys, argv, name):
        # the library's integer rule names the value; no file, not even a temp file
        monkeypatch.chdir(tmp_path)
        simplex.sample_dirichlet((1.0, 1.0, 1.0), 50, seed=0).to_csv("samples.csv")
        assert main(argv + ["--out", "out.csv"]) == 2
        assert capsys.readouterr().err == f"error: {name} must be an integer >= 1, got 0\n"
        assert os.listdir(tmp_path) == ["samples.csv"]

    @pytest.mark.parametrize("grid", [1, 0])
    def test_grid_below_two(self, tmp_path, monkeypatch, capsys, grid):
        # the integer rule names the value, as for the flags above
        monkeypatch.chdir(tmp_path)
        simplex.sample_dirichlet((1.0, 1.0, 1.0), 50, seed=0).to_csv("samples.csv")
        assert main(["estimate", "--samples", "samples.csv", "--grid", str(grid),
                     "--out", "out.csv"]) == 2
        assert capsys.readouterr().err == f"error: grid must be an integer >= 2, got {grid}\n"
        assert os.listdir(tmp_path) == ["samples.csv"]

    def test_s_table(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["s-table", "--d", "1", "--m-list", "5,10,20",
                     "--out", str(out)]) == 0
        assert read(out).startswith("d,r,s,m,value,limit,scaled_error")

    def test_lclt_compare(self, tmp_path):
        out = tmp_path / "l.csv"
        assert main(["lclt-compare", "--d", "1", "--r", "1", "--s", "1",
                     "--m-list", "8,32,128", "--out", str(out)]) == 0
        assert "# summary: pass" in read(out)

    def test_identity_check(self, tmp_path):
        out = tmp_path / "i.csv"
        assert main(["identity-check", "--d-max", "2", "--m-max", "10",
                     "--out", str(out)]) == 0
        assert "MISMATCH" not in read(out)

    def test_identity_check_max_residual_is_the_scalar_sweep_maximum(self, tmp_path):
        out = tmp_path / "i.csv"
        assert main(["identity-check", "--d-max", "1", "--m-max", "2", "--out", str(out)]) == 0
        dup = [line for line in read(out).splitlines() if line.startswith("duplication,")]
        want = max(abs(oracles.duplication_residual(10.0 ** (-3.0 + 9.0 * i / 999.0)))
                   for i in range(1000))
        assert dup == ["duplication,, ,max_residual=%.17g" % want]

    def test_identity_check_over_capacity_before_work(self, tmp_path, monkeypatch):
        # cost d_max (d_max + 1) / 2 (m_max + 1)^2, a bound on the one table's
        # d_max cut products: 10 * 3162^2 is within the cap of 10^8,
        # 10 * 3163^2 is not
        class WorkStarted(Exception):
            pass

        def work(*args):
            raise WorkStarted

        monkeypatch.setattr(cli.spoly, "central_binomial_identity", work)
        monkeypatch.setattr(cli, "duplication_residual", work)
        out = tmp_path / "i.csv"
        assert main(["identity-check", "--d-max", "4", "--m-max", "3162",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert tmp_leftovers(tmp_path) == []
        with pytest.raises(WorkStarted):
            main(["identity-check", "--d-max", "4", "--m-max", "3161", "--out", str(out)])

    def test_identity_check_counts_every_table(self, tmp_path, monkeypatch):
        # d = 1..20 at m_max = 9 count 210 * 10^2 = 21000 operations, over a
        # cap of 10^4 although the largest d alone (20 * 10^2) is not
        monkeypatch.setattr(simplex, "LATTICE_CAP", 10**4)
        out = tmp_path / "i.csv"
        assert main(["identity-check", "--d-max", "20", "--m-max", "9",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert tmp_leftovers(tmp_path) == []
        assert main(["identity-check", "--d-max", "13", "--m-max", "9",
                     "--out", str(out)]) == 0

    def test_ineq_fuzz_over_capacity(self, tmp_path, monkeypatch):
        # one trial takes up to 11 (dmax + 2) gamma arguments: 99 at dmax 7, 110 at dmax 8
        monkeypatch.setattr(simplex, "LATTICE_CAP", 100)
        out = tmp_path / "f.csv"
        assert main(["ineq-fuzz", "--trials", "3", "--dmax", "8", "--out", str(out)]) == 2
        assert not out.exists()
        assert tmp_leftovers(tmp_path) == []
        assert main(["ineq-fuzz", "--trials", "3", "--dmax", "7", "--out", str(out)]) == 0

    def test_sample_gen_and_estimate(self, tmp_path):
        samples = tmp_path / "samples.csv"
        assert main(["sample-gen", "--alpha", "1,1", "--n", "50",
                     "--seed", "3", "--out", str(samples)]) == 0
        out = tmp_path / "est.csv"
        assert main(["estimate", "--samples", str(samples), "--kind", "simplex-cdf",
                     "--m", "10", "--grid", "8", "--out", str(out)]) == 0
        lines = read(out).strip().splitlines()
        assert lines[0] == "x1,value"
        assert len(lines) == 9

    def test_estimate_missing_samples(self, tmp_path):
        assert main(["estimate", "--samples", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_estimate_bad_kind(self, tmp_path):
        samples = tmp_path / "s.csv"
        main(["sample-gen", "--alpha", "1,1", "--n", "5", "--out", str(samples)])
        assert main(["estimate", "--samples", str(samples), "--kind", "wavelet",
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_estimate_nan_sample(self, tmp_path):
        samples = tmp_path / "s.csv"
        samples.write_text("x1,x2\nnan,0.1\n0.2,0.3\n")
        out = tmp_path / "o.csv"
        assert main(["estimate", "--samples", str(samples), "--kind", "simplex-cdf",
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("text", ["x1,x2\n0.1,0.2,0.3\n0.2,0.3,0.1\n",
                                      "x1,foo\n0.1,0.2\n0.2,0.3\n"],
                             ids=["too-few-names", "unnamed-column"])
    def test_estimate_header_must_name_columns(self, tmp_path, capsys, text):
        samples = tmp_path / "s.csv"
        samples.write_text(text)
        out = tmp_path / "o.csv"
        assert main(["estimate", "--samples", str(samples), "--kind", "simplex-cdf",
                     "--out", str(out)]) == 2
        assert "does not name its" in capsys.readouterr().err
        assert not out.exists()
        assert tmp_leftovers(tmp_path) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["x1,x2\n", "x1,x2\n\n# no rows\n"])
    def test_estimate_header_only_samples(self, tmp_path, capsys, text):
        samples = tmp_path / "s.csv"
        samples.write_text(text)
        out = tmp_path / "o.csv"
        assert main(["estimate", "--samples", str(samples), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "no sample rows" in err and "UserWarning" not in err
        assert not out.exists()
        assert tmp_leftovers(tmp_path) == []

    def test_sample_gen_over_capacity(self, tmp_path, monkeypatch):
        # three gamma variates per draw: 10 draws are 30, within the cap; 11 are not
        monkeypatch.setattr(simplex, "LATTICE_CAP", 30)
        out = tmp_path / "s.csv"
        argv = ["sample-gen", "--alpha", "1,1,1", "--out", str(out)]
        assert main(argv + ["--n", "11"]) == 2
        assert not out.exists()
        assert tmp_leftovers(tmp_path) == []
        assert main(argv + ["--n", "10"]) == 0

    def test_estimate_over_capacity(self, tmp_path):
        samples = tmp_path / "s.csv"
        main(["sample-gen", "--alpha", "1,1,1", "--n", "5", "--out", str(samples)])
        out = tmp_path / "o.csv"
        assert main(["estimate", "--samples", str(samples), "--kind", "hypercube-cdf",
                     "--m", "20000", "--out", str(out)]) == 2
        assert not out.exists()

    def test_hypercube_grid_over_capacity_not_built(self, tmp_path, monkeypatch):
        # 10001^2 query points is just over the cap; no grid may be allocated
        samples = tmp_path / "s.csv"
        main(["sample-gen", "--alpha", "1,1,1", "--n", "5", "--out", str(samples)])

        def no_grid(*args, **kwargs):
            raise AssertionError("query grid built before the capacity check")

        monkeypatch.setattr(np, "meshgrid", no_grid)
        monkeypatch.setattr(np, "linspace", no_grid)
        out = tmp_path / "o.csv"
        assert main(["estimate", "--samples", str(samples), "--kind", "hypercube-cdf",
                     "--m", "5", "--grid", "10001", "--out", str(out)]) == 2
        assert not out.exists()


def summary_word(path) -> str:
    """The first word of a CSV's closing '# summary:' line."""
    last = read(path).splitlines()[-1]
    assert last.startswith("# summary: "), last
    return last[len("# summary: "):].split(",")[0]


def stdout_word(text: str) -> str:
    """The status word a verdict subcommand prints after its name."""
    return text.split()[1].rstrip(",")


def oracle_passes(command: str, path) -> bool:
    """The verdict that cli once wrote as one expression, on a written CSV's rows."""
    lines = read(path).splitlines()[1:-1]
    if command == "identity-check":
        tables = {}
        for line in lines[:-1]:
            _, d, _, detail = line.split(",")
            tables.setdefault(d, [True]).append(detail == "exact")  # m = 0 is not written
        worst = float(lines[-1].split("=")[1])
        return oracles.identity_check_passes(list(tables.values()), worst)
    values = [float(line.split(",")[-1]) for line in lines]
    return {"s-table": oracles.s_table_passes,
            "lclt-compare": oracles.lclt_compare_passes}[command](values)


def _times(name, factor):
    """A patch: spoly.<name> times factor."""
    def patch(monkeypatch):
        fn = getattr(spoly, name)
        monkeypatch.setattr(spoly, name, lambda *args: factor * fn(*args))
    return patch


def _nan_integral_at_20(monkeypatch):
    fn = spoly.s_integral_exact
    monkeypatch.setattr(spoly, "s_integral_exact",
                        lambda r, s, ms, d: np.where(np.equal(ms, 20), math.nan, fn(r, s, ms, d)))


def _error_tie(monkeypatch):
    # phi = 0 and m^{d/2} S = 1 at d = 2: every m has error 1
    monkeypatch.setattr(spoly, "phi_eval", lambda r, s, x: 0.0)
    monkeypatch.setattr(spoly, "s_eval", lambda r, s, m, d, x: 1.0 / m)


def _one_equal_flipped(monkeypatch):
    fn = spoly.central_binomial_identity

    def flipped(d_max, m_max):
        tables = fn(d_max, m_max)
        tables[-1]["equal"][m_max // 2] = False
        return tables

    monkeypatch.setattr(spoly, "central_binomial_identity", flipped)


def _residual_above_tol(monkeypatch):
    fn = cli.duplication_residual

    def raised(ys):
        out = fn(ys)
        out[500] = 2e-12
        return out

    monkeypatch.setattr(cli, "duplication_residual", raised)


# name: (argv, patch) of a run of s-table, lclt-compare or identity-check that fails
# on finite values; test_nan_scaled_error_fails runs the NaN case
FAILING = {
    "s-table-limit-1.01": (["s-table", "--d", "1"], _times("asymptotic_constant", 1.01)),
    "lclt-compare-tie": (["lclt-compare", "--d", "2", "--m-list", "16,64"], _error_tie),
    "lclt-compare-phi-0.99": (["lclt-compare", "--d", "1", "--r", "1", "--s", "1"],
                              _times("phi_eval", 0.99)),
    "identity-check-one-mismatch": (["identity-check", "--d-max", "3", "--m-max", "20"],
                                    _one_equal_flipped),
    "identity-check-residual-2e-12": (["identity-check"], _residual_above_tol),
}


def _no_patch(monkeypatch):
    pass


# (argv, patch, exit code): each verdict subcommand at a passing and a failing input
VERDICT_RUNS = {
    "cm-scan-pass": (["cm-scan", "--instances", "2", "--grid", "0.5:3:0.5", "--seed", "1"],
                     _no_patch, 0),
    "cm-scan-fail": (["cm-scan", "--instances", "2", "--grid", "0.5:3:0.5", "--seed", "1",
                      "--self-test-corrupt"], _no_patch, 1),
    "ineq-fuzz-pass": (["ineq-fuzz", "--trials", "50", "--dmax", "3", "--seed", "7"],
                       _no_patch, 0),
    "ineq-fuzz-fail": (["ineq-fuzz", "--trials", "50", "--dmax", "3", "--seed", "7",
                        "--self-test-corrupt"], _no_patch, 1),
    "s-table-pass": (["s-table", "--m-list", "5,10,20"], _no_patch, 0),
    # d = 4 from m = 1: the scaled error more than doubles by m = 16
    "s-table-fail": (["s-table", "--d", "4", "--m-list", "1,2,4,8,16"], _no_patch, 1),
    "lclt-compare-pass": (["lclt-compare", "--m-list", "8,32,128"], _no_patch, 0),
    "lclt-compare-fail": FAILING["lclt-compare-phi-0.99"] + (1,),
    "identity-check-pass": (["identity-check", "--d-max", "2", "--m-max", "10"], _no_patch, 0),
    "identity-check-fail": FAILING["identity-check-one-mismatch"] + (1,),
}


class TestVerdicts:
    """Every verdict subcommand takes its exit code from a ScanReport of the
    margins it recorded, and says the same in its summary line and on stdout."""

    @pytest.mark.parametrize("name", sorted(FAILING))
    def test_fail_path(self, tmp_path, monkeypatch, capsys, name):
        argv, patch = FAILING[name]
        patch(monkeypatch)
        out = tmp_path / "v.csv"
        assert main(argv + ["--out", str(out)]) == 1
        assert summary_word(out) == "fail"
        assert stdout_word(capsys.readouterr().out) == "fail"

    def test_nan_scaled_error_fails(self, tmp_path, monkeypatch, capsys):
        # Python's max skips a NaN that is not first: the old expression passed this
        _nan_integral_at_20(monkeypatch)
        out = tmp_path / "s.csv"
        assert main(["s-table", "--m-list", "5,10,20,40", "--out", str(out)]) == 1
        assert read(out).splitlines()[-1] == "# summary: fail, max_scaled_error=nan"
        stdout = capsys.readouterr().out
        assert stdout_word(stdout) == "fail" and "'nan'" in stdout
        assert oracles.s_table_passes([float(line.split(",")[-1])
                                       for line in read(out).splitlines()[1:-1]])

    @pytest.mark.parametrize("name", sorted(VERDICT_RUNS))
    def test_status_summary_and_exit_code_agree(self, tmp_path, monkeypatch, capsys, name):
        argv, patch, rc = VERDICT_RUNS[name]
        patch(monkeypatch)
        out = tmp_path / "v.csv"
        assert main(argv + ["--out", str(out)]) == rc
        want = "pass" if rc == 0 else "fail"
        assert summary_word(out) == stdout_word(capsys.readouterr().out) == want


# the golden runs of the three subcommands, a run of s-table at d = 2 whose
# verdict sits on its bound at m = 1 (scaled errors m / (2 (m + 1))), and the
# failing runs
ORACLE_RUNS = {
    "s-table": (["s-table"], _no_patch),
    "s-table-d2": (["s-table", "--d", "2", "--m-list", "4,8,16"], _no_patch),
    "s-table-d2-from-1": (["s-table", "--d", "2", "--m-list", "1,2,3,50,200"], _no_patch),
    "s-table-d4-from-1": VERDICT_RUNS["s-table-fail"][:2],
    "lclt-compare": (["lclt-compare"], _no_patch),
    "lclt-compare-d2": (["lclt-compare", "--d", "2", "--r", "2", "--s", "3",
                         "--m-list", "16,64"], _no_patch),
    "lclt-compare-d3": (["lclt-compare", "--d", "3", "--r", "1", "--s", "2",
                         "--m-list", "8,16,32"], _no_patch),
    "identity-check": (["identity-check", "--d-max", "3", "--m-max", "20"], _no_patch),
    "identity-check-4x60": (["identity-check", "--d-max", "4", "--m-max", "60"], _no_patch),
    **FAILING,
}


def run_on_values(monkeypatch, tmp_path, command, values, worst=None):
    """The exit code of command run on fakes of its numerical layer that put
    values in its CSV bit for bit: the scaled errors of s-table or the errors
    of lclt-compare, both at d = 2 and m = 1, 2, 4, ... (m times a float over
    a power of two is exact), or the equal tables of identity-check with
    worst as its duplication residual."""
    out = tmp_path / "v.csv"
    if command == "identity-check":
        monkeypatch.setattr(spoly, "central_binomial_identity", lambda d_max, m_max: [
            {"d": d, "equal": list(equal)} for d, equal in enumerate(values, 1)])
        monkeypatch.setattr(cli, "duplication_residual", lambda ys: np.full(len(ys), worst))
        argv = ["--d-max", str(len(values)), "--m-max", str(len(values[0]) - 1)]
    else:
        ms = [2**i for i in range(len(values))]
        at = dict(zip(ms, values))
        if command == "s-table":
            monkeypatch.setattr(spoly, "asymptotic_constant", lambda d: 0.0)
            monkeypatch.setattr(spoly, "s_integral_exact",
                                lambda r, s, ms, d: np.array([at[m] / m / m for m in ms]))
        else:
            monkeypatch.setattr(spoly, "phi_eval", lambda r, s, x: 0.0)
            monkeypatch.setattr(spoly, "s_eval", lambda r, s, m, d, x: at[m] / m)
        argv = ["--d", "2", "--m-list", ",".join(map(str, ms))]
    rc = main([command] + argv + ["--out", str(out)])
    if command != "identity-check":
        assert [float(line.split(",")[-1]) for line in read(out).splitlines()[1:-1]] == values
    return rc


def _s_table_lists(rng):
    """Scaled-error lists around the bound 2 s_0 + 1e-12: on it, one ulp
    either side, ties with s_0, and random values."""
    for _ in range(150):
        s0 = rng.choice([0.0, 1e-13, 0.1, 0.25, 1.0 / 3.0, rng.uniform(0.0, 2.0)])
        bound = 2.0 * s0 + 1e-12
        pool = [s0, bound, np.nextafter(bound, np.inf), np.nextafter(bound, -np.inf),
                rng.uniform(0.0, 3.0 * s0 + 1e-12)]
        yield [float(s0)] + [float(rng.choice(pool)) for _ in range(rng.integers(0, 6))]


def _lclt_lists(rng):
    """Error lists: strictly falling, with one tie, one ulp apart, or shuffled."""
    for _ in range(150):
        errs = sorted(rng.uniform(0.0, 1.0, rng.integers(1, 7)), reverse=True)
        i = rng.integers(0, len(errs))
        kind = rng.integers(0, 4)
        if kind == 1 and i > 0:
            errs[i] = errs[i - 1]
        elif kind == 2 and i > 0:
            errs[i] = np.nextafter(errs[i - 1], -np.inf)
        elif kind == 3:
            rng.shuffle(errs)
        yield [float(e) for e in errs]


def _identity_cases(rng):
    """Equal tables with a few mismatches (at m = 0 too, which is not
    checked) and residuals on, near and off 1e-12."""
    for _ in range(150):
        d_max, m_max = rng.integers(1, 4), rng.integers(1, 6)
        tables = [list(rng.random(m_max + 1) > 0.05) for _ in range(d_max)]
        worst = rng.choice([0.0, 1e-12, np.nextafter(1e-12, np.inf),
                            np.nextafter(1e-12, 0.0), rng.uniform(0.0, 2e-12)])
        yield tables, float(worst)


class TestVerdictOracles:
    """On finite values each verdict's margins pass exactly where the
    expression cli once held (oracles.*_passes) passes."""

    @pytest.mark.parametrize("name", sorted(ORACLE_RUNS))
    def test_real_runs(self, tmp_path, monkeypatch, name):
        argv, patch = ORACLE_RUNS[name]
        patch(monkeypatch)
        out = tmp_path / "v.csv"
        rc = main(argv + ["--out", str(out)])
        assert rc in (0, 1)
        assert (rc == 0) == oracle_passes(argv[0], out)

    def test_s_table_random_and_boundary(self, tmp_path, monkeypatch):
        verdicts = set()
        for scaled in _s_table_lists(np.random.default_rng(11)):
            want = oracles.s_table_passes(scaled)
            assert (run_on_values(monkeypatch, tmp_path, "s-table", scaled) == 0) == want, scaled
            verdicts.add(want)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("s0", [0.0, 1e-13, 0.1, 0.25, 1.0 / 3.0, 1.7])
    def test_s_table_exact_bound(self, tmp_path, monkeypatch, s0):
        bound = 2.0 * s0 + 1e-12
        for top, rc in ((bound, 0), (np.nextafter(bound, -np.inf), 0),
                        (np.nextafter(bound, np.inf), 1)):
            assert run_on_values(monkeypatch, tmp_path, "s-table", [s0, 0.0, float(top)]) == rc
            assert oracles.s_table_passes([s0, 0.0, float(top)]) == (rc == 0)

    def test_lclt_compare_random_and_ties(self, tmp_path, monkeypatch):
        verdicts = set()
        for errs in _lclt_lists(np.random.default_rng(12)):
            want = oracles.lclt_compare_passes(errs)
            assert (run_on_values(monkeypatch, tmp_path, "lclt-compare", errs) == 0) == want, errs
            verdicts.add(want)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("errs, rc", [
        ([1.0, 1.0], 1), ([0.0, 0.0], 1), ([3.0, 2.0, 2.0, 1.0], 1), ([0.5, 0.25, 0.25], 1),
        ([1.0, float(np.nextafter(1.0, 0.0))], 0), ([5e-324, 0.0], 0), ([0.0], 0), ([2.0], 0),
    ])
    def test_lclt_compare_exact_ties(self, tmp_path, monkeypatch, errs, rc):
        assert run_on_values(monkeypatch, tmp_path, "lclt-compare", errs) == rc
        assert oracles.lclt_compare_passes(errs) == (rc == 0)

    def test_identity_check_random(self, tmp_path, monkeypatch):
        verdicts = set()
        for tables, worst in _identity_cases(np.random.default_rng(13)):
            want = oracles.identity_check_passes(tables, worst)
            rc = run_on_values(monkeypatch, tmp_path, "identity-check", tables, worst)
            assert (rc == 0) == want, (tables, worst)
            verdicts.add(want)
        assert verdicts == {True, False}


class TestSamplesWithinTolerance:
    # a sample within 1e-12 outside [0, 1] is kept clamped, so it counts as
    # the sample on the bound does (it once fell past the last lattice point)
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("kind", ["simplex-cdf", "hypercube-cdf", "hypercube-density"])
    def test_same_bytes_as_the_clamped_file(self, tmp_path, kind, d):
        outputs = []
        for a, b in (("1.0000000000000002", "-1e-13"), ("1.0", "0.0")):
            rows = ([a, b, "0.25", "0.5"] if d == 1
                    else [f"{a},{b}", f"{b},0.25", "0.25,0.5", f"{a},1e-13"])
            samples = tmp_path / f"samples{a}.csv"
            samples.write_text(simplex._coord_header(d) + "\n" + "\n".join(rows) + "\n")
            out = tmp_path / f"estimate{a}.csv"
            assert main(["estimate", "--samples", str(samples), "--kind", kind, "--m", "10",
                         "--grid", "3", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["ineq-fuzz", "--trials", "100", "--dmax", "4", "--seed", "42"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert read(a) == read(b)

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sample-gen", "--alpha", "2,3", "--n", "20", "--seed", "1", "--out", str(a)])
        main(["sample-gen", "--alpha", "2,3", "--n", "20", "--seed", "2", "--out", str(b)])
        assert read(a) != read(b)


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials = 30\ndmax = 2\nseed = 9\n# comment\n\n")
        out = tmp_path / "f.csv"
        assert main(["ineq-fuzz", "--config", str(cfg), "--out", str(out)]) == 0
        # 3 checks per trial plus header and summary
        assert len(read(out).strip().splitlines()) == 30 * 3 + 2

    def test_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials=30\n")
        out = tmp_path / "f.csv"
        assert main(["ineq-fuzz", "--config", str(cfg), "--trials", "10",
                     "--out", str(out)]) == 0
        assert len(read(out).strip().splitlines()) == 10 * 3 + 2

    def test_missing_config(self, tmp_path):
        assert main(["ineq-fuzz", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "f.csv")]) == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trails = 5\n")
        out = tmp_path / "f.csv"
        assert main(["ineq-fuzz", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_bad_config_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials = ten\n")
        out = tmp_path / "f.csv"
        assert main(["ineq-fuzz", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_config_key_with_underscore(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_order = 3\n")
        out = tmp_path / "cm.csv"
        assert main(["cm-scan", "--config", str(cfg), "--instances", "1",
                     "--grid", "1:2:1", "--out", str(out)]) == 0
        # two grid points, three derivative and three difference orders each
        assert len(read(out).strip().splitlines()) == 2 * 6 + 2

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not key value\n")
        assert main(["ineq-fuzz", "--config", str(cfg),
                     "--out", str(tmp_path / "f.csv")]) == 2


# per subcommand: flags and a config file that together set every option
FLAG_SETS = {
    "cm-scan": (["--d", "3", "--grid", "0.5:2:0.5", "--self-test-corrupt"],
                "max_order = 5\ninstances = 4\nseed = 9\n"),
    "ineq-fuzz": (["--trials", "7", "--self-test-corrupt"], "dmax = 3\nseed = 4\n"),
    "s-table": (["--d", "2", "--r", "1"], "m_list = 2,4\nd = 3\n"),
    "lclt-compare": (["--r", "2", "--m-list", "4,8"], "s = 3\nd = 2\n"),
    "identity-check": (["--d-max", "2"], "m_max = 5\n"),
    "estimate": (["--samples", "s.csv", "--kind", "hypercube-cdf"], "m = 4\ngrid = 3\n"),
    "sample-gen": (["--alpha", "1,2", "--n", "5"], "seed = 2\n"),
}
REAL_BUILD = cli._build_parser


@pytest.fixture
def parse(monkeypatch, capsys):
    """run(argv, full) -> (exit code, stdout, stderr, Namespaces parsed, parsers built)
    of main(argv) with every handler replaced by a no-op; full=True builds the
    parser of every subcommand, the oracle, whatever main asks for."""
    monkeypatch.setenv("COLUMNS", "80")

    def run(argv, full=False):
        parsed, built = [], []

        def build(name=None):
            parser = REAL_BUILD(None if full else name)
            real_parse = parser.parse_args

            def record(args):
                ns = real_parse(args)
                parsed.append(ns)
                return argparse.Namespace(**{**vars(ns), "func": lambda _: 0})

            parser.parse_args = record
            built.append(parser)
            return parser

        monkeypatch.setattr(cli, "_build_parser", build)
        rc = main(list(argv))
        out, err = capsys.readouterr()
        return rc, out, err, parsed, built

    return run


def subcommand_names(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


class TestOneSubcommandParser:
    """main builds only the named subcommand's parser; the full parser is the oracle."""

    def test_flag_sets_cover_every_subcommand(self):
        assert list(FLAG_SETS) == list(cli._COMMANDS)
        assert subcommand_names(REAL_BUILD()) == list(cli._COMMANDS)

    @pytest.mark.parametrize("name", list(FLAG_SETS))
    def test_builds_only_the_named_subcommand(self, parse, name):
        rc, _, _, parsed, built = parse([name])
        assert rc == 0 and len(parsed) == 1
        assert [subcommand_names(p) for p in built] == [[name]]

    @pytest.mark.parametrize("name", list(FLAG_SETS))
    def test_same_namespace(self, parse, tmp_path, name):
        flags, config = FLAG_SETS[name]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        for argv in ([name], [name, "--config", str(cfg), "--out", "o.csv"] + flags):
            one, full = parse(argv), parse(argv, full=True)
            assert one[0] == full[0] == 0
            assert one[3] == full[3], argv
            assert len(one[3]) == (2 if "--config" in argv else 1)
        # the config values were applied, below the flags typed after them
        assert one[3][-1] != one[3][0]

    @pytest.mark.parametrize("name", list(FLAG_SETS))
    @pytest.mark.parametrize("tail", [["--help"], ["--out"], ["--no-such-flag"],
                                      ["--seed", "x"], ["stray"]])
    def test_same_help_and_usage_errors(self, parse, name, tail):
        one, full = parse([name] + tail), parse([name] + tail, full=True)
        assert one[:3] == full[:3]
        assert one[0] == (0 if tail == ["--help"] else 2)
        assert (one[1] if tail == ["--help"] else one[2]).startswith("usage: bernsimplex ")

    def test_unknown_config_key_usage(self, parse, tmp_path):
        # reported by the top-level parser, whose usage lists every subcommand
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trails = 5\n")
        argv = ["ineq-fuzz", "--config", str(cfg)]
        one, full = parse(argv), parse(argv, full=True)
        assert one[:3] == full[:3] and one[0] == 2
        assert "{" + ",".join(cli._COMMANDS) + "}" in one[2]

    @pytest.mark.parametrize("argv", [[], ["--help"], ["-h"], ["no-such-command"],
                                      ["--out", "x.csv"], ["-h", "cm-scan"]])
    def test_top_level_uses_the_full_parser(self, parse, argv):
        rc, out, err, _, built = parse(argv)
        assert [subcommand_names(p) for p in built] == [list(cli._COMMANDS)]
        assert rc == (0 if argv[:1] in (["--help"], ["-h"]) else 2)
        text = out if rc == 0 else err
        assert "{" + ",".join(cli._COMMANDS) + "}" in text
        if not argv:
            assert err.endswith("error: the following arguments are required: command\n")
        if rc == 0:
            for name in cli._COMMANDS:
                assert f"\n    {name} " in out


class TestAtomicOutput:
    def test_no_tmp_leftovers(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["sample-gen", "--alpha", "1,1", "--n", "5", "--out", str(out)])
        assert tmp_leftovers(tmp_path) == []

    def test_failed_rename_leaves_nothing(self, tmp_path, monkeypatch):
        # sample-gen writes through the same temp file and rename as every table
        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(simplex.os, "replace", fail)
        out = tmp_path / "s.csv"
        assert main(["sample-gen", "--alpha", "1,1", "--n", "5", "--out", str(out)]) == 2
        assert not out.exists()
        assert tmp_leftovers(tmp_path) == []

    # each subcommand's first piece of work, and a run that reaches it
    FIRST_WORK = {
        "cm-scan": (cli.monotone, "cm_scan", ["--instances", "1"]),
        "ineq-fuzz": (cli.ineq, "fuzz_inequalities", ["--trials", "3"]),
        "s-table": (cli.spoly, "s_integral_exact", []),
        "lclt-compare": (cli.spoly, "s_eval", []),
        "identity-check": (cli.spoly, "central_binomial_identity", []),
        "estimate": (cli.SampleSet, "from_csv", ["--samples", "samples.csv"]),
        "sample-gen": (cli, "sample_dirichlet", []),
    }

    @pytest.mark.parametrize("command", FIRST_WORK)
    def test_unwritable_out_before_work(self, command, tmp_path, monkeypatch, capsys):
        class WorkStarted(Exception):
            pass

        def work(*args, **kwargs):
            raise WorkStarted

        owner, name, flags = self.FIRST_WORK[command]
        monkeypatch.setattr(owner, name, work)
        monkeypatch.chdir(tmp_path)
        out = os.path.join("no_such_dir", "x.csv")
        assert main([command, *flags, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {out!r}\n"
        assert os.listdir(tmp_path) == []
        with pytest.raises(WorkStarted):
            main([command, *flags, "--out", "x.csv"])
        assert os.listdir(tmp_path) == []
        # paths whose directory takes the temp file but whose rename fails
        os.mkdir("adir")
        for out, error in (("adir", "[Errno 21] Is a directory"),
                           ("adir" + os.sep, "[Errno 20] Not a directory"),
                           ("", "[Errno 2] No such file or directory")):
            assert main([command, *flags, "--out", out]) == 2
            assert capsys.readouterr().err == f"error: {error}: {out!r}\n"
            assert os.listdir(tmp_path) == ["adir"] and os.listdir("adir") == []


    def test_directory_access_rejects_is_probed(self, tmp_path, monkeypatch):
        # os.access can refuse a directory that mkstemp can write (other
        # effective ids, ACLs); the probe then passes and leaves nothing
        monkeypatch.setattr(simplex.os, "access", lambda *args, **kwargs: False)
        out = tmp_path / "s.csv"
        assert main(["sample-gen", "--n", "3", "--out", str(out)]) == 0
        assert os.listdir(tmp_path) == ["s.csv"]


class TestFlatMemory:
    """A run's peak RSS does not grow with its size: a scan's rows stream to
    the file and its report keeps only the verdict, and every blocked loop
    holds at most simplex.BLOCK_BYTES of temporaries.  Each run is the child
    of a small Python process, which prints the child's ru_maxrss: a process
    counts the RSS of the one it was started from in its own ru_maxrss, and
    the test process's RSS could hide the run's.

    Both processes of a run start alike whatever the checkout holds: they
    run with -B on a PYTHONPYCACHEPREFIX that one import fills from the
    current source first, and a fixed glibc mmap threshold
    (MALLOC_MMAP_THRESHOLD_, which turns off its dynamic raise) returns each
    freed large array to the system.  Without them a stale bytecode entry,
    or merely a different argv or environment, moves an 8 MB heap step into
    the larger run alone."""

    # ru_maxrss is in kilobytes, on macOS in bytes
    MB = 2.0 ** (20 if sys.platform == "darwin" else 10)

    CODE = ("import resource, subprocess, sys\n"
            "subprocess.run([sys.executable, '-B', *sys.argv[1:]], check=True,\n"
            "               stdout=subprocess.DEVNULL)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")

    # d = 2, m = 100: 5,151 lattice rows, so a block holds 32 points of S and
    # 48 of the simplex cdf, and 4,000 and 16,000 points are 84 to 500 blocks
    # (one block reads 38.5-39.0 MB, 4,000 points 39.1-39.2 MB)
    POINTS = ("import sys; import numpy as np\n"
              "xs = np.random.default_rng(0).dirichlet(np.ones(3), int(sys.argv[1]))\n")
    S_GRID = POINTS + ("from bernsimplex import spoly\n"
                       "spoly.s_eval_grid(1, 2, 100, 2, xs[:, :2])\n")
    SIMPLEX_CDF = POINTS + ("from bernsimplex import estimate, simplex\n"
                            "samples = simplex.sample_dirichlet((1.0, 1.0, 1.0), 1000, 0)\n"
                            "estimate.bernstein_cdf_simplex(samples, 100, xs[:, :2])\n")

    @pytest.fixture(scope="class")
    def env(self, tmp_path_factory):
        src = os.path.dirname(os.path.dirname(os.path.abspath(bernsimplex.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]),
            PYTHONPYCACHEPREFIX=str(tmp_path_factory.mktemp("pycache")),
            MALLOC_MMAP_THRESHOLD_="131072")
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        subprocess.run([sys.executable, "-c", "import resource, subprocess, bernsimplex.cli"],
                       env=env, check=True)
        return env

    @pytest.mark.parametrize("argv,sizes", [
        (["-m", "bernsimplex.cli", "ineq-fuzz", "--dmax", "5", "--trials"], (20_000, 80_000)),
        (["-m", "bernsimplex.cli", "cm-scan", "--d", "3", "--grid", "0.1:10:0.1", "--instances"],
         (3, 100)),
        (["-c", S_GRID], (4_000, 16_000)),
        (["-c", SIMPLEX_CDF], (4_000, 16_000)),
        # d = 5: eight instances a scan block, so 2 and 15 blocks
        (["-m", "bernsimplex.cli", "cm-scan", "--d", "5", "--grid", "0.1:10:0.1", "--instances"],
         (12, 120)),
    ])
    def test_peak_rss_does_not_grow(self, tmp_path, env, argv, sizes):
        runs = []
        # each run in a directory of its own, where a CLI run writes its default --out
        for size in sizes:
            (tmp_path / str(size)).mkdir()
            runs.append(subprocess.Popen([sys.executable, "-B", "-c", self.CODE, *argv, str(size)],
                                         cwd=tmp_path / str(size), stdout=subprocess.PIPE,
                                         env=env, text=True))
        peaks = [run.communicate()[0] for run in runs]
        assert [run.returncode for run in runs] == [0, 0]
        small, large = (int(peak) / self.MB for peak in peaks)
        assert large - small < 5.0, (small, large)


class TestNoScalarSweeps:
    def test_fuzz_workload_call_counts(self, tmp_path, monkeypatch):
        # one identity-check and one ineq-fuzz run, as the fuzz benchmark
        # workload makes them: the lattice identity is one table for every d,
        # the duplication sweep is one array call, the fuzz trials are one
        # block, and no trial gets a weight check of its own: the weight rule
        # runs once, on the block's weight matrix
        counts = dict.fromkeys(["log_gamma", "duplication_residual", "_weight_rows",
                                "central_binomial_identity"], 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for fn in (specfun.log_gamma, specfun.duplication_residual):
            wrapper = counted(fn.__name__, fn)
            for name, module in list(sys.modules.items()):
                if name.startswith("bernsimplex") and getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, wrapper)
        monkeypatch.setattr(ineq, "_weight_rows", counted("_weight_rows", ineq._weight_rows))
        monkeypatch.setattr(cli.spoly, "central_binomial_identity",
                            counted("central_binomial_identity", cli.spoly.central_binomial_identity))
        weights = []
        log_coeff = ineq.log_coeff
        monkeypatch.setattr(ineq, "log_coeff", lambda w, a: weights.append(w) or log_coeff(w, a))
        monkeypatch.chdir(tmp_path)
        assert main(["identity-check", "--d-max", "4", "--m-max", "60"]) == 0
        assert main(["ineq-fuzz", "--trials", "500"]) == 0
        assert counts["central_binomial_identity"] == 1
        assert counts["duplication_residual"] == 1
        assert counts["log_gamma"] <= 7
        assert counts["_weight_rows"] == 1
        # every ln C comes from a weight matrix, a block of trials at a time
        assert len(weights) == 1
        assert all(isinstance(w, np.ndarray) and w.ndim == 2 for w in weights)

    @staticmethod
    def count_specfun_calls(monkeypatch):
        counts = dict.fromkeys(["polygamma", "log_gamma"], 0)
        for fn in (specfun.polygamma, specfun.log_gamma):
            def wrapper(*args, _fn=fn, **kwargs):
                counts[_fn.__name__] += 1
                return _fn(*args, **kwargs)
            for name, module in list(sys.modules.items()):
                if name.startswith("bernsimplex") and getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, wrapper)
        return counts

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_each_cm_scan_instance_is_checked_once(self, tmp_path, monkeypatch, corrupt):
        # one weight and one point rule call per drawn instance, corrupt or not
        counts = dict.fromkeys(["_weight_rows", "_simplex_rows"], 0)
        for name in counts:
            def wrapper(*args, _fn=getattr(monotone, name), _name=name):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(monotone, name, wrapper)
        monkeypatch.chdir(tmp_path)
        argv = ["cm-scan", "--instances", "5", "--grid", "0.1:10:0.5"]
        assert main(argv + ["--self-test-corrupt"] * corrupt) == int(corrupt)
        assert counts == {"_weight_rows": 5, "_simplex_rows": 5}

    def test_certify_call_counts(self, tmp_path, monkeypatch):
        # one scan block for the three instances: per order, one term stack
        # and its one polygamma call give h^{(n)} and its scale, then one
        # log_gamma call for g
        counts = self.count_specfun_calls(monkeypatch)
        stacks = []
        h_terms = monotone._h_terms
        monkeypatch.setattr(monotone, "_h_terms", lambda *args: stacks.append(1) or h_terms(*args))
        monkeypatch.chdir(tmp_path)
        assert main(["cm-scan", "--d", "5", "--instances", "3", "--grid", "0.1:10:0.1",
                     "--max-order", "7"]) == 0
        assert counts == {"polygamma": 7, "log_gamma": 1}
        assert len(stacks) == 7

    def test_overflowing_block(self, tmp_path, monkeypatch, capsys):
        # all five instances in one block: order 1's digamma call passes, and
        # order 2's call, the block's second, overflows
        counts = self.count_specfun_calls(monkeypatch)
        out = tmp_path / "cm.csv"
        assert main(["cm-scan", "--instances", "5", "--grid", "1e200:1e200:1",
                     "--out", str(out)]) == 2
        assert "largest point is 1e+200" in capsys.readouterr().err
        assert counts == {"polygamma": 2, "log_gamma": 0}
        assert not out.exists()
        assert tmp_leftovers(tmp_path) == []


# one small run of each of the seven subcommands; estimate reads sample-gen's file
SEVEN = [
    ["sample-gen", "--alpha", "1,2,1", "--n", "30", "--seed", "2", "--out", "samples.csv"],
    ["cm-scan", "--instances", "2", "--grid", "0.5:3:0.5", "--max-order", "4",
     "--self-test-corrupt", "--out", "cm.csv"],
    ["ineq-fuzz", "--trials", "20", "--out", "fuzz.csv"],
    ["s-table", "--m-list", "2,4,8", "--out", "s.csv"],
    ["lclt-compare", "--d", "2", "--m-list", "4,8", "--out", "lclt.csv"],
    ["identity-check", "--d-max", "2", "--m-max", "5", "--out", "identity.csv"],
    ["estimate", "--samples", "samples.csv", "--kind", "hypercube-density", "--m", "4",
     "--grid", "3", "--out", "estimate.csv"],
]

FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, np.float64(0.1),
          np.float64(-2.5e-300), 1.0 / 3.0, 0.0, 2.0]
NON_FLOATS = [0, -7, 12345678901234567890, np.int64(3), "exact", "", " ", "max_residual=1e-14"]


@pytest.fixture
def written(tmp_path, monkeypatch):
    """Run SEVEN in tmp_path; {file name: (header, row format, rows)} as
    passed to the CSV writer, each of its blocks 2-D with a column per header
    field.  Next to each file NAME, NAME.rows holds the same rows and summary
    as the per-row writer (oracles.write_csv_rows) writes them."""
    real = simplex._write_csv
    calls = {}

    def spy(path, header, row_format, blocks, summary):
        blocks = list(blocks)
        for block in blocks:
            assert block.ndim == 2 and block.shape[1] == len(header.split(",")), (path, block.shape)
        rows = oracles.rows_of(blocks)
        calls[os.path.basename(path)] = (header, row_format, rows)
        real(path, header, row_format, blocks, summary)
        oracles.write_csv_rows(path + ".rows", header, row_format, rows, summary)

    monkeypatch.setattr(simplex, "_write_csv", spy)
    monkeypatch.setattr(cli, "_write_csv", spy)
    monkeypatch.chdir(tmp_path)
    for argv in SEVEN:
        assert main(list(argv)) in (0, 1), argv
    assert sorted(calls) == sorted(argv[-1] for argv in SEVEN)
    return calls


class TestRowFormats:
    def test_written_rows_match_per_value_fields(self, written):
        # the row format gives every row the bytes of the per-value field format
        for name, (header, row_format, rows) in written.items():
            assert rows, name
            for row in rows:
                assert row_format % row == ",".join(oracles.csv_field(v) for v in row), name

    def test_special_values(self, written):
        # each column of each format over the awkward values of its kind:
        # %.17g for float columns, %s for int and str columns
        for name, (header, row_format, rows) in written.items():
            specs = row_format.split(",")
            assert set(specs) <= {"%.17g", "%s"}, name
            for i in range(len(FLOATS)):
                row = tuple(FLOATS[(i + j) % len(FLOATS)] if spec == "%.17g"
                            else NON_FLOATS[(i + j) % len(NON_FLOATS)]
                            for j, spec in enumerate(specs))
                assert row_format % row == ",".join(oracles.csv_field(v) for v in row), name

    def test_block_writer_matches_row_writer(self, written, tmp_path):
        for name in written:
            assert (tmp_path / name).read_bytes() == (tmp_path / (name + ".rows")).read_bytes()

    @pytest.mark.parametrize("dtype", [float, object])
    def test_block_writer_matches_row_writer_on_special_values(self, tmp_path, dtype):
        # float blocks of %.17g columns; object blocks alternate %s and %.17g
        specs = ["%.17g" if dtype is float or j % 2 else "%s" for j in range(5)]
        rows = [[FLOATS[(i + j) % len(FLOATS)] if spec == "%.17g"
                 else NON_FLOATS[(i + j) % len(NON_FLOATS)] for j, spec in enumerate(specs)]
                for i in range(len(FLOATS) * len(NON_FLOATS))]
        block = np.array(rows, dtype=dtype)
        args = ("a,b,c,d,e", ",".join(specs))
        simplex._write_csv(str(tmp_path / "blocks.csv"), *args, [block[:7], block[7:]],
                           lambda: "# summary")
        oracles.write_csv_rows(tmp_path / "rows.csv", *args, rows, lambda: "# summary")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_every_line_has_the_header_field_count(self, written, tmp_path):
        for name in written:
            lines = (tmp_path / name).read_text().splitlines()
            fields = lines[0].count(",")
            data = [line for line in lines[1:] if not line.startswith("#")]
            assert data, name
            for line in data:
                assert line.count(",") == fields, (name, line)
