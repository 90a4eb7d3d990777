import math
import os

import numpy as np
import pytest

from bernsimplex import monotone, simplex
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

    def test_nan_derivative_fails_with_nan_violation(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(monotone, "h_derivative", lambda *args, **kwargs: math.nan)
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
