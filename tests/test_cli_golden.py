"""Golden SHA-256 hashes of the bytes the CLI writes.

Each case runs ``main(argv)`` in a fresh directory with relative output
paths (so the paths echoed on stdout do not vary) and checks the exit code,
the SHA-256 of the output CSV and the SHA-256 of stdout. The hashes were
recorded from the CLI before its options were given argparse types and its
CSV writing was folded into one writer; a change to any written byte shows
here. The two s-table CSV hashes were recorded again when the simplex
integral moved to the convolution kernel, which moves its values by ulps;
test_s_table_values_against_mpmath checks those values. The two hypercube
estimate CSV hashes were recorded again when the hypercube estimators took
their binomial weights from the shared log-pmf kernel, which moves their
values by ulps; test_hypercube_estimates_against_mpmath checks those values.
The three cm-scan CSV hashes were recorded again when the scan moved to
array-valued polygamma and log_gamma, whose numpy log and power differ from
libm in the last bits; about 3% of their rows moved, and their stdout
(verdict and max_violation) did not. test_cm_scan_values_against_mpmath
checks those values. Values that pass through numpy's log, exp or power
were hashed with numpy 2.4 on an x86-64 host with AVX-512; numpy picks those
kernels by CPU, so another host may give other last bits.
"""

import hashlib
import math

import mpmath
import numpy as np
import pytest

from bernsimplex import monotone
from bernsimplex.cli import _random_instance, main

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
        "c04fc3886e59fe66ea6c2af04d52f867afb146662d98e4ac9fac71006141ac7c",
        "729474df12f9c5d1353feb039df8786d126d096b2eabf86c27ca93cf00744583"),
    "ineq-fuzz-corrupt": (
        ["ineq-fuzz", "--trials", "40", "--self-test-corrupt", "--out", "f.csv"], "f.csv", 1,
        "ccb778686fb68be231f46e119ba3f4f4c405332560968057d00c18b28f8d9aff",
        "27b40443e57d03abf263a15655c1829c6dfe27cbad189848fd1f2ba789634eec"),
    "ineq-fuzz-config": (
        ["ineq-fuzz", "--config", "run.cfg"], "ineq_fuzz.csv", 0,
        "c6820545788845e6feb5ce75d7d282d7c4bc3a14cedf98697a6bb442e82429c9",
        "64652883088142afe51d43eb37652565ae01d5e7113594dc74c599064a244d8f"),
    "ineq-fuzz-config-flag": (
        ["ineq-fuzz", "--config", "run.cfg", "--trials", "12"], "ineq_fuzz.csv", 0,
        "a473298422479fa585c69636d64f72e7bf528582969fffa89b8911f16b96cc00",
        "e53d57e39feefea2dace5044aca7395414b6c311a5c0287f65053e002b051263"),
    "s-table": (
        ["s-table"], "s_table.csv", 0,
        "34ba0fe5c6542a2abdc36b8f3dd89dedc66b33cfd0b88b6d7a3edd17a008c550",
        "6271f2e7380271ceae32e7ef37c4251ad52ddc23fa48b4a5a89f42d8980f4c44"),
    "s-table-d2": (
        ["s-table", "--d", "2", "--m-list", "4,8,16", "--out", "s.csv"], "s.csv", 0,
        "70ecb4e4804f73be2715c1a03dab7db8cea4a9e9da5953c9d76a57ac68394cb8",
        "9dd8bc7d96f833b502e30ddfe80dbbe5e56ec8c7c029ea413111314ea10d22bd"),
    "lclt-compare": (
        ["lclt-compare"], "lclt_compare.csv", 0,
        "ceafa4e2158e02fd4adf17d7ba30a9cbd67b8b0d5d5f6694346a1e960e45c4b8",
        "4bde5a479333ee194b6bad0f839cd157f918f5f14da09af1f24ebd2e9d057601"),
    "lclt-compare-d2": (
        ["lclt-compare", "--d", "2", "--r", "2", "--s", "3", "--m-list", "16,64",
         "--out", "l.csv"], "l.csv", 0,
        "9aca9ac653c7769a7be9153448443632700c435b9c0892b0dbd9071eb0ba27a0",
        "04f937c27049232ab79a1ad3a412fe4c59b6ee2d366656a8f818cb68e91826ce"),
    "lclt-compare-d3": (
        ["lclt-compare", "--d", "3", "--r", "1", "--s", "2", "--m-list", "8,16,32",
         "--out", "l.csv"], "l.csv", 0,
        "6625e78ea7e38e5f597ac9a2b1270465db948504871d7e157ce0875a165f1562",
        "b7bf4d4c4467df89ca896f95948d845060b7e962de075b83221267aa2e9117ab"),
    "identity-check": (
        ["identity-check", "--d-max", "3", "--m-max", "20"], "identity_check.csv", 0,
        "9d1ad8cdd21d5085ce74644c50966d2cc9718f5f37a412d9bc43cf9a8f83617c",
        "5e338c2bcab8d6f75f38aecee5516268bd38562955fba32dfd803f12d108d349"),
    "sample-gen": (
        ["sample-gen"], "samples.csv", 0,
        "a43a8fe056278a6cb0a66171e04867157e47347c4e183d9f5097fecbd8aa7a62",
        "80cca9c54ad153637a3d393298e965b5a028d6a8db46db0281062445239cf87a"),
    "estimate-simplex-cdf": (
        ["estimate", "--samples", "samples.csv"], "estimate.csv", 0,
        "4b496f31efbd1b68153d191658571920ecd7d97138a8c9d92e3cfd856b798a9d",
        "f40e9efe3b0a112a05b80ff442f2300b76ec10d48c21a423b1838e84d9ef83ef"),
    "estimate-hypercube-cdf": (
        ["estimate", "--samples", "samples.csv", "--kind", "hypercube-cdf", "--m", "12",
         "--grid", "9", "--out", "e.csv"], "e.csv", 0,
        "c33d45fb2af6ddb3f896ec6f4f3b9e7ee5ee4f73a29d5363a12a6b51804301b0",
        "8a7a87f20091a61fc735f6a3ec467e4e616a721a67b09993f541ea95ca56ec4b"),
    "estimate-hypercube-density": (
        ["estimate", "--samples", "samples.csv", "--kind", "hypercube-density",
         "--m", "10", "--grid", "7", "--out", "e.csv"], "e.csv", 0,
        "e5e0517e31fc97f738058c602e1c2462e7e50b54a398f26599e8a90a952841d1",
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


@pytest.mark.parametrize("name", ["estimate-hypercube-cdf", "estimate-hypercube-density"])
def test_hypercube_estimates_against_mpmath(name, tmp_path, monkeypatch):
    # these two hashes were re-recorded when the binomial weights moved to
    # the shared log-pmf kernel (values moved by ulps); this checks every
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
                v = mpmath.loggamma(P * mpf(inst.weights.M) + 1)
                for g, x in inst.active_terms():
                    v += -mpmath.loggamma(P * mpf(g) + 1) + sign_x * P * mpf(g) * mpmath.log(mpf(x))
                log_g_at[inst, p] = v
            return log_g_at[inst, p]

        for row in rows:
            inst, a, n = insts[int(row[0])], float(row[1]), int(row[2])
            value, margin = float(row[3]), float(row[4])
            A = mpf(a)
            if n > 0:
                M = mpf(inst.weights.M)
                terms = [-M**n * mpmath.polygamma(n - 1, A * M + 1)]
                for g, x in inst.active_terms():
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
