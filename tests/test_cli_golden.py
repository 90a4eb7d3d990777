"""Golden SHA-256 hashes of the bytes the CLI writes.

Each case runs ``main(argv)`` in a fresh directory with relative output
paths (so the paths echoed on stdout do not vary) and checks the exit code,
the SHA-256 of the output CSV and the SHA-256 of stdout. The hashes were
recorded from the CLI before its options were given argparse types and its
CSV writing was folded into one writer; a change to any written byte shows
here. The two s-table CSV hashes were recorded again when the simplex
integral moved to the convolution kernel, which moves its values by ulps;
test_s_table_values_against_mpmath checks those values. They were recorded
once more when asymptotic_constant moved from exp(log_gamma) to its closed
form: only the limit and scaled_error columns moved (the limit from 16 and
7 times 2^-52 off to 0.37 and 0 at d = 1 and 2); every value byte and the
stdout stayed. The two hypercube
estimate CSV hashes were recorded again when the hypercube estimators took
their binomial weights from the shared log-pmf kernel, which moves their
values by ulps; test_hypercube_estimates_against_mpmath checks those values.
The three cm-scan CSV hashes were recorded again when the scan moved to
array-valued polygamma and log_gamma, whose numpy log and power differ from
libm in the last bits; about 3% of their rows moved, and their stdout
(verdict and max_violation) did not. test_cm_scan_values_against_mpmath
checks those values. The ineq-fuzz, ineq-fuzz-corrupt and ineq-fuzz-config
CSV hashes were recorded again when the fuzzer moved to one array log_coeff
call per block of trials, whose numpy log differs from libm in the last bits;
their stdout (verdict and min margin) did not move.
test_fuzz_margins_against_mpmath checks the margins of all four ineq-fuzz
cases. The identity-check-4x60 hashes were recorded with one exact per-m
identity evaluation, before the check moved to one power-series table per d.
The three lclt-compare CSV hashes were recorded again when S at a point moved
from the lattice log-pmf to per-coordinate Poisson tables, which moves its
values from 45-4717 ulps off the exact S to within 8; their stdout did not
move. test_lclt_compare_values_against_exact checks those values.
The three estimate CSV hashes were recorded again when the estimators took
their multinomial weights from the same Poisson tables, which moves their
values from up to 94 ulps off the exact sums to within 8; their stdout did
not move. test_simplex_cdf_estimate_against_exact and
test_hypercube_estimates_against_mpmath check those values.
Values that pass through numpy's log, exp or power
were hashed with numpy 2.4 on an x86-64 host with AVX-512; numpy picks those
kernels by CPU, so another host may give other last bits.
"""

import hashlib
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import oracles
from bernsimplex import ineq, monotone
from bernsimplex.cli import _random_instance, main
from bernsimplex.simplex import _simplex_rows

# written before every case that reads --samples
SAMPLES_ARGV = ["sample-gen", "--alpha", "2,1,3", "--n", "400", "--seed", "4",
                "--out", "samples.csv"]

CONFIG = "# comment\n\ntrials = 30\ndmax=2\nseed = 9\n"

# name: (argv, output file, exit code, csv sha256, stdout sha256)
CASES = {
    "cm-scan": (
        ["cm-scan", "--instances", "3"], "cm_scan.csv", 0,
        "f7879915fd25463311c44882767206137e07fc301708a9c6e272af7cee0edb7b",
        "77b49ade2e12f5eb487501e7617af3bcd747c33621f9ec10dd127f52243e09d0"),
    "cm-scan-d3": (
        ["cm-scan", "--d", "3", "--instances", "2", "--grid", "0.2:5:0.4",
         "--max-order", "5", "--seed", "8", "--out", "cm.csv"], "cm.csv", 0,
        "41d987189a97208986ba9e1ad33caaf04c540c834e8168802646b3280e452949",
        "362b5f8b58e79aa20322fac36be9cb97b9ea9229c83452e19ea9f5369eba2eab"),
    "cm-scan-corrupt": (
        ["cm-scan", "--instances", "2", "--self-test-corrupt", "--seed", "3"],
        "cm_scan.csv", 1,
        "bdae2461874eb5a664b58050fbe0bed386a68630ddd3d648235f2b2d9e45fbfc",
        "4ff9ad165e843d7c1b3f9b60ad67bf205c29b8703312cb861d97c2947bcf9587"),
    "ineq-fuzz": (
        ["ineq-fuzz"], "ineq_fuzz.csv", 0,
        "d4f7dcf3d431db6d2fa8f8cdff87eaf007d33152220360a180965fd962e9fb25",
        "729474df12f9c5d1353feb039df8786d126d096b2eabf86c27ca93cf00744583"),
    "ineq-fuzz-corrupt": (
        ["ineq-fuzz", "--trials", "40", "--self-test-corrupt", "--out", "f.csv"], "f.csv", 1,
        "2f75970dd57d0e9b1ac17b69431fd33efcaf9d9685025fa530a834609034de66",
        "27b40443e57d03abf263a15655c1829c6dfe27cbad189848fd1f2ba789634eec"),
    "ineq-fuzz-config": (
        ["ineq-fuzz", "--config", "run.cfg"], "ineq_fuzz.csv", 0,
        "84e031bbaae68cb918265d5798355fe42648ff82cea4fedcb59352d31c7d5333",
        "64652883088142afe51d43eb37652565ae01d5e7113594dc74c599064a244d8f"),
    "ineq-fuzz-config-flag": (
        ["ineq-fuzz", "--config", "run.cfg", "--trials", "12"], "ineq_fuzz.csv", 0,
        "a473298422479fa585c69636d64f72e7bf528582969fffa89b8911f16b96cc00",
        "e53d57e39feefea2dace5044aca7395414b6c311a5c0287f65053e002b051263"),
    "s-table": (
        ["s-table"], "s_table.csv", 0,
        "71ff2a154f7cb4acc09a1df05be5ec813ad1d8e79bfb37343da0b2592b2e5930",
        "6271f2e7380271ceae32e7ef37c4251ad52ddc23fa48b4a5a89f42d8980f4c44"),
    "s-table-d2": (
        ["s-table", "--d", "2", "--m-list", "4,8,16", "--out", "s.csv"], "s.csv", 0,
        "2d0d48aedfc6237e995c5c461713a108816e4815faba4f3c95e3626cb934572c",
        "9dd8bc7d96f833b502e30ddfe80dbbe5e56ec8c7c029ea413111314ea10d22bd"),
    "lclt-compare": (
        ["lclt-compare"], "lclt_compare.csv", 0,
        "fc23b8f8a3b254bbfef0ec217a31ba8a591a0f300a923db844517c63267c590f",
        "4bde5a479333ee194b6bad0f839cd157f918f5f14da09af1f24ebd2e9d057601"),
    "lclt-compare-d2": (
        ["lclt-compare", "--d", "2", "--r", "2", "--s", "3", "--m-list", "16,64",
         "--out", "l.csv"], "l.csv", 0,
        "41ad658fab202f729c02a6f0cc2a89b1f778b74858b621a9a517ed161bc3b749",
        "04f937c27049232ab79a1ad3a412fe4c59b6ee2d366656a8f818cb68e91826ce"),
    "lclt-compare-d3": (
        ["lclt-compare", "--d", "3", "--r", "1", "--s", "2", "--m-list", "8,16,32",
         "--out", "l.csv"], "l.csv", 0,
        "c2b4e549e4a0a8dc8ce01ff1c399c7b638b679124ed2f8da0137a7895848a41c",
        "b7bf4d4c4467df89ca896f95948d845060b7e962de075b83221267aa2e9117ab"),
    "identity-check": (
        ["identity-check", "--d-max", "3", "--m-max", "20"], "identity_check.csv", 0,
        "9d1ad8cdd21d5085ce74644c50966d2cc9718f5f37a412d9bc43cf9a8f83617c",
        "5e338c2bcab8d6f75f38aecee5516268bd38562955fba32dfd803f12d108d349"),
    "identity-check-4x60": (
        ["identity-check", "--d-max", "4", "--m-max", "60", "--out", "i.csv"], "i.csv", 0,
        "5e22a2c36bb84a46c52b1cfb51370821773efce66fcfc9dd679d926eb9336030",
        "5e338c2bcab8d6f75f38aecee5516268bd38562955fba32dfd803f12d108d349"),
    "sample-gen": (
        ["sample-gen"], "samples.csv", 0,
        "a43a8fe056278a6cb0a66171e04867157e47347c4e183d9f5097fecbd8aa7a62",
        "80cca9c54ad153637a3d393298e965b5a028d6a8db46db0281062445239cf87a"),
    "estimate-simplex-cdf": (
        ["estimate", "--samples", "samples.csv"], "estimate.csv", 0,
        "91214f2c1622b1f9cc96f007e61d7a728c00e58bb3666c611519df71dd22b176",
        "f40e9efe3b0a112a05b80ff442f2300b76ec10d48c21a423b1838e84d9ef83ef"),
    "estimate-hypercube-cdf": (
        ["estimate", "--samples", "samples.csv", "--kind", "hypercube-cdf", "--m", "12",
         "--grid", "9", "--out", "e.csv"], "e.csv", 0,
        "1c9e997c906f176958bf25157c9d60fb0e2c9af0ce68e0836b7e42fdab5fbd6b",
        "8a7a87f20091a61fc735f6a3ec467e4e616a721a67b09993f541ea95ca56ec4b"),
    "estimate-hypercube-density": (
        ["estimate", "--samples", "samples.csv", "--kind", "hypercube-density",
         "--m", "10", "--grid", "7", "--out", "e.csv"], "e.csv", 0,
        "38bcbbe7ff07b54c2b3ffbb0d9b97159c2a9e757e80a2c1f456686179a8d5a76",
        "1866f7742230259f32c21b6be2f52655cc6deed9065cf82afd94f896894c21fc"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path, monkeypatch, capsys):
    argv, out, rc, csv_sha, stdout_sha = CASES[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(CONFIG)
    if "--samples" in argv:
        assert main(SAMPLES_ARGV) == 0
    capsys.readouterr()
    assert main(list(argv)) == rc
    stdout = capsys.readouterr().out
    assert _sha((tmp_path / out).read_bytes()) == csv_sha
    assert _sha(stdout.encode()) == stdout_sha


@pytest.mark.parametrize("name", ["s-table", "s-table-d2"])
def test_s_table_values_against_mpmath(name, tmp_path, monkeypatch):
    # these two hashes were re-recorded when the integral moved from the
    # lattice to the convolution kernel (values moved by ulps); this checks
    # every value they pin against the 40-digit closed form
    argv, out = CASES[name][:2]
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 0
    lines = (tmp_path / out).read_text().splitlines()
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    assert rows
    for row in rows:
        d, m, value = int(row[0]), int(row[3]), float(row[4])
        with mpmath.workdps(40):
            half_d = mpmath.mpf(d) / 2
            want = float(mpmath.mpf(m) ** half_d * mpmath.sqrt(mpmath.pi) * mpmath.gamma(m + 1)
                         / (2**d * mpmath.gamma(half_d + mpmath.mpf(1) / 2)
                            * mpmath.gamma(m + half_d + 1)))
        assert math.isclose(value, want, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("name", ["lclt-compare", "lclt-compare-d2", "lclt-compare-d3"])
def test_lclt_compare_values_against_exact(name, tmp_path, monkeypatch):
    # these three hashes were re-recorded when S at a point moved to Poisson
    # tables; this checks every scaled value they pin against m^{d/2} times S
    # as an exact fraction at the float barycenter (its d+1 coordinates, as
    # the point rule forms them, sum to 1 exactly), and the error column
    argv, out = CASES[name][:2]
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 0
    lines = (tmp_path / out).read_text().splitlines()
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    assert rows
    for row in rows:
        d, r, s, m = (int(v) for v in row[:4])
        value, phi, err = (float(v) for v in row[4:])
        coords = [Fraction(1.0 / (d + 1))] * d
        coords.append(1 - sum(coords))
        q = max(c.denominator for c in coords)
        exact = oracles.s_exact(r, s, m, [int(c * q) for c in coords], q)
        assert float(coords[-1]) == float(_simplex_rows(np.array([[1.0 / (d + 1)] * d]))[0, -1])
        want = float(Fraction(m ** (d / 2.0)) * exact)
        assert math.isclose(value, want, rel_tol=1e-14, abs_tol=0.0), (d, r, s, m)
        assert err == abs(value - phi)


@pytest.mark.parametrize("name", ["estimate-hypercube-cdf", "estimate-hypercube-density"])
def test_hypercube_estimates_against_mpmath(name, tmp_path, monkeypatch):
    # these two hashes were re-recorded when the binomial weights moved to
    # the shared log-pmf kernel, and again when they moved to the Poisson
    # tables (values moved by ulps each time); this checks every
    # value they pin against the same Bernstein sum at 40 digits, with
    # counts taken by comparing the samples with k/m directly
    argv, out = CASES[name][:2]
    monkeypatch.chdir(tmp_path)
    assert main(SAMPLES_ARGV) == 0
    assert main(list(argv)) == 0
    y = np.loadtxt(tmp_path / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
    n, d = y.shape
    m = int(argv[argv.index("--m") + 1])
    density = "hypercube-density" in argv
    deg = m - 1 if density else m
    counts = np.zeros((deg + 1,) * d, dtype=int)
    for k in np.ndindex(counts.shape):
        k = np.array(k)
        inside = (y > k / m) & (y <= (k + 1) / m) if density else y <= k / m
        counts[tuple(k)] = np.sum(np.all(inside, axis=1))
    rows = np.loadtxt(tmp_path / out, delimiter=",", skiprows=1, ndmin=2)
    assert len(rows) > 0
    for row in rows:
        with mpmath.workdps(40):
            xs = [mpmath.mpf(float(v)) for v in row[:-1]]
            weights = [[mpmath.binomial(deg, j) * x**j * (1 - x) ** (deg - j)
                        for j in range(deg + 1)] for x in xs]
            total = mpmath.mpf(0)
            for k in zip(*np.nonzero(counts)):
                term = mpmath.mpf(int(counts[k]))
                for w, j in zip(weights, k):
                    term *= w[j]
                total += term
            want = float(total * (m**d if density else 1) / n)
        assert math.isclose(row[-1], want, rel_tol=1e-12, abs_tol=1e-15 if want == 0 else 0.0)


def test_simplex_cdf_estimate_against_exact(tmp_path, monkeypatch):
    # this hash was re-recorded when the simplex cdf took its multinomial
    # weights from the Poisson tables; this checks every value it pins
    # against the Bernstein sum as an exact fraction at the full coordinates
    # the point rule forms, with counts taken by comparing the samples with
    # k/m directly
    argv, out = CASES["estimate-simplex-cdf"][:2]
    monkeypatch.chdir(tmp_path)
    assert main(SAMPLES_ARGV) == 0
    assert main(list(argv)) == 0
    y = np.loadtxt(tmp_path / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
    n, d = y.shape
    m = 20  # estimate's default --m
    lattice = [k + (m - sum(k),) for k in itertools.product(range(m + 1), repeat=d)
               if sum(k) <= m]
    # n F_n(k/m) times the multinomial coefficient, per lattice row
    coef = [int(np.sum(np.all(y <= np.array(k[:-1]) / m, axis=1))) * math.factorial(m)
            // math.prod(map(math.factorial, k)) for k in lattice]
    rows = np.loadtxt(tmp_path / out, delimiter=",", skiprows=1, ndmin=2)
    assert len(rows) > 0
    for row in rows:
        coords = [Fraction(v) for v in _simplex_rows(row[None, :-1])[0]]
        q = max(c.denominator for c in coords)  # powers of two: a common denominator
        powers = [[int(c * q) ** j for j in range(m + 1)] for c in coords]
        total = sum(c * math.prod(p[j] for p, j in zip(powers, k))
                    for c, k in zip(coef, lattice) if c)
        want = float(Fraction(total, n * q**m))
        assert math.isclose(row[-1], want, rel_tol=1e-12, abs_tol=0.0), row


@pytest.mark.parametrize("name", ["cm-scan", "cm-scan-d3", "cm-scan-corrupt"])
def test_cm_scan_values_against_mpmath(name, tmp_path, monkeypatch):
    # these three hashes were re-recorded when cm_scan moved to array-valued
    # polygamma and log_gamma (values moved by ulps); this checks every value
    # they pin against 40 digits: derivative rows within 1e-13 max(scale, 1),
    # difference rows within 1e-13 of the sum of the |terms| of the difference
    argv, out, rc = CASES[name][:3]
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == rc

    def flag(key, default):
        return argv[argv.index(key) + 1] if key in argv else default

    rng = np.random.Generator(np.random.PCG64(int(flag("--seed", 0))))
    insts = [_random_instance(rng, int(flag("--d", 2)))
             for _ in range(int(flag("--instances", 50)))]
    sign_x = -1 if "--self-test-corrupt" in argv else 1
    mpf = mpmath.mpf
    lines = (tmp_path / out).read_text().splitlines()
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    assert rows
    with mpmath.workdps(40):
        log_g_at = {}

        def log_g(inst, p):
            if (inst, p) not in log_g_at:
                P = mpf(p)
                v = mpmath.loggamma(P * mpf(inst.M) + 1)
                for g, x in zip(inst.gamma, inst.full):
                    v += -mpmath.loggamma(P * mpf(g) + 1) + sign_x * P * mpf(g) * mpmath.log(mpf(x))
                log_g_at[inst, p] = v
            return log_g_at[inst, p]

        for row in rows:
            inst, a, n = insts[int(row[0])], float(row[1]), int(row[2])
            value, margin = float(row[3]), float(row[4])
            A = mpf(a)
            if n > 0:
                M = mpf(inst.M)
                terms = [-M**n * mpmath.polygamma(n - 1, A * M + 1)]
                for g, x in zip(inst.gamma, inst.full):
                    terms.append(mpf(g) ** n * mpmath.polygamma(n - 1, A * mpf(g) + 1))
                    if n == 1:
                        terms.append(-sign_x * mpf(g) * mpmath.log(mpf(x)))
                scale = max(float(max(abs(t) for t in terms)), 1.0)
                tol = 1e-13 * scale
                want = (-1) ** (n - 1) * mpmath.fsum(terms)
                floor = monotone.DERIV_FLOOR_REL * scale
            else:
                k = -n
                gs = [mpmath.exp(log_g(inst, a + j * monotone.DIFF_STEP)) for j in range(k + 1)]
                terms = [(-1) ** (k - j) * mpmath.binomial(k, j) * gs[j] for j in range(k + 1)]
                tol = 1e-13 * float(mpmath.fsum(abs(t) for t in terms))
                want = (-1) ** k * mpmath.fsum(terms)
                floor = monotone.DIFF_REL_TOL * float(gs[0])
            assert abs(value - float(want)) <= tol, row
            assert abs(margin - float(want + floor)) <= tol, row


@pytest.mark.parametrize("name", ["ineq-fuzz", "ineq-fuzz-corrupt", "ineq-fuzz-config",
                                  "ineq-fuzz-config-flag"])
def test_fuzz_margins_against_mpmath(name, tmp_path, monkeypatch):
    # the ineq-fuzz hashes were re-recorded when the fuzzer moved to array
    # log_gamma (margins moved in the last bits); this checks every margin
    # they pin against 40 digits at the float nodes the fuzzer forms, within
    # 16 eps times the size of the ln Gamma terms the margin cancels.  The
    # terms reach ~4e3, so FUZZ_TOL / 100 is below the rounding of the
    # trial-by-trial route too (2.5e-12 at trial 571 b of the default run).
    argv, out, rc = CASES[name][:3]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(CONFIG)
    assert main(list(argv)) == rc
    params = {"trials": 1000, "dmax": 5, "seed": 0}
    if "--config" in argv:
        for line in CONFIG.splitlines():
            if "=" in line and not line.startswith("#"):
                key, value = line.split("=")
                params[key.strip()] = int(value)
    for key in params:
        if f"--{key}" in argv:
            params[key] = int(argv[argv.index(f"--{key}") + 1])
    sign = -1 if "--self-test-corrupt" in argv else 1
    lines = (tmp_path / out).read_text().splitlines()
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    assert len(rows) == 3 * params["trials"]
    eps = np.finfo(float).eps
    with mpmath.workdps(40):

        def log_c(w, v):
            v = mpmath.mpf(v)
            return mpmath.loggamma(v * mpmath.mpf(w.M) + 1) - mpmath.fsum(
                mpmath.loggamma(v * mpmath.mpf(g) + 1) for g in w.gamma if g > 0.0)

        for t, d, M, w, a, lam, a1, a2, a3 in oracles.fuzz_draws(**params):
            nodes = oracles.fuzz_nodes(a, lam, a1, a2, a3)
            for row, tag in zip(rows[3 * t:3 * t + 3], "abc"):
                assert row[:4] == [str(t), str(d), f"{M:.17g}", tag]
                want = mpmath.fsum(mpmath.mpf(c) * log_c(w, v) for c, v in nodes[tag])
                tol = 16 * eps * sum(abs(c) * oracles.log_coeff_scale(w, v) for c, v in nodes[tag])
                assert abs(float(row[4]) - sign * float(want)) <= tol, row
