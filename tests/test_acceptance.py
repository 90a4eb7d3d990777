"""End-to-end acceptance suite.

Each test covers one numbered criterion, runs it at the stated tolerance,
and prints a single pass/fail line (run with ``pytest -s`` to see them).
All twelve must pass for the package to be considered correct.  The
tests after them check the paper's application the same way (the variance
of the Bernstein density estimator against the Gaussian limit of
S_{1,1,m}) and the second-order term of S_{1,1,m}'s asymptotics.
"""

import math
import time

import numpy as np

from bernsimplex import estimate as est
from bernsimplex import ineq, monotone, specfun, spoly
from bernsimplex.cli import _random_instance
from bernsimplex.report import ScanReport
from bernsimplex.simplex import sample_dirichlet
import oracles
from oracles import SimplexPoint, empirical_cdf, sup_error_on_grid


def _report(num, desc: str, passed: bool, t0: float, detail: str = "") -> None:
    """One pass/fail line for criterion num, or for a named check if num is a str."""
    tag = "PASS" if passed else "FAIL"
    extra = f" ({detail})" if detail else ""
    name = f"criterion {num:2d}" if isinstance(num, int) else num
    print(f"{name} [{tag}] {desc}{extra} in {time.time() - t0:.2f}s")
    assert passed, f"{name}: {desc}{extra}"


def test_criterion_01_central_binomial_identity():
    t0 = time.time()
    # one table holds every d <= 4 and m <= 60
    ok = all(all(r["equal"][1:]) for r in spoly.central_binomial_identity(4, 60))
    _report(1, "central binomial lattice identity exact for d<=4, m<=60", ok, t0)


def test_criterion_02_exact_vs_closed_form_integral():
    t0 = time.time()
    worst = 0.0
    for d in (1, 2, 3):
        ms = range(1, 201)
        for m, a in zip(ms, spoly.s_integral_exact(1, 1, ms, d).tolist()):
            b = spoly.s_integral_closed_form(d, m)
            worst = max(worst, abs(a - b) / abs(b))
    _report(2, "exact integral matches closed form, d<=3 m<=200",
            worst <= 1e-11, t0, f"worst rel {worst:.3g}")


def test_criterion_03_scaled_integral_limit():
    t0 = time.time()
    stated = {1: 0.8862269255, 2: 0.5, 3: 0.2215567314}
    m_list = (10, 20, 40, 80, 160, 320)
    ok = True
    detail = []
    for d in (1, 2, 3):
        limit = spoly.asymptotic_constant(d)
        ok = ok and abs(limit - stated[d]) <= 5e-10
        errs = [
            abs(m ** (d / 2.0) * integral - limit)
            for m, integral in zip(m_list, spoly.s_integral_exact(1, 1, m_list, d).tolist())
        ]
        scaled = [m * e for m, e in zip(m_list, errs)]
        ok = ok and max(scaled) <= 2.0 * scaled[0]
        ok = ok and errs[-1] * 10.0 < errs[0]
        detail.append(f"d={d} ratio {errs[0] / errs[-1]:.1f}x")
    _report(3, "m^(d/2)*integral -> limit with bounded m*error", ok, t0, ", ".join(detail))


def test_criterion_04_complete_monotonicity_scan():
    t0 = time.time()
    rng = np.random.Generator(np.random.PCG64(2024))
    grid = [0.1 + 0.1 * i for i in range(100)]
    # one stream of 200 instances, d drawn before each: blocks of mixed d
    rep = ScanReport()
    instances = (_random_instance(rng, int(rng.integers(1, 6))) for _ in range(200))
    for _ in monotone.cm_scan(instances, grid, rep, max_order=7):
        pass
    ok = rep.passed
    worst = rep.max_violation
    corrupt = ScanReport()
    for _ in monotone.cm_scan(
            [_random_instance(np.random.Generator(np.random.PCG64(0)), 2, corrupt=True)],
            grid, corrupt, max_order=7):
        pass
    ok = ok and not corrupt.passed
    _report(4, "complete-monotonicity certificates on 200 instances + corrupt self-test",
            ok, t0, f"max violation {worst:.3g}")


def test_criterion_05_kl_limit_and_monotone_h_prime():
    t0 = time.time()
    rng = np.random.Generator(np.random.PCG64(5))
    grid = [0.1 * 2.0 ** (k / 2.0) for k in range(20)]
    worst = 0.0
    ok = True
    for _ in range(50):
        inst = _random_instance(rng, int(rng.integers(1, 5)))
        gap = abs(monotone.h_derivative(inst, 1e4, 1) - monotone.kl_limit(inst))
        worst = max(worst, gap)
        hp = [monotone.h_derivative(inst, a, 1) for a in grid]
        ok = ok and all(hp[i] > hp[i + 1] for i in range(len(hp) - 1))
    _report(5, "h'(1e4) within 5e-4 of KL limit; h' strictly decreasing",
            ok and worst <= 5e-4, t0, f"worst gap {worst:.3g}")


def test_criterion_06_j_positivity():
    t0 = time.time()
    rng = np.random.Generator(np.random.PCG64(6))
    worst = math.inf
    for _ in range(10_000):
        d = int(rng.integers(1, 7))
        u = rng.dirichlet(np.ones(d + 1))
        y = 1.0 + 10.0 ** rng.uniform(-12.0, math.log10(1e6 - 1.0))
        worst = min(worst, monotone.j_eval(u, y))
    _report(6, "J_u(y) > 0 on 1e4 random draws, d<=6, y in (1, 1e6]",
            worst > 0.0, t0, f"min value {worst:.3g}")


def test_criterion_07_inequality_fuzz_and_equality_cases():
    t0 = time.time()
    margins = {"a": [], "b": [], "c": []}
    blocks = ineq.fuzz_inequalities(10_000, 5, 77, ScanReport())
    for _, _, _, tag, margin in oracles.rows_of(blocks):
        margins[tag].append(margin)
    ok = min(margins["a"]) >= -1e-10 and min(margins["c"]) >= -1e-10
    ok = ok and min(margins["b"]) > 0.0
    # log-convexity at equal a_j, and the exchange margin at a1 = a3
    eq = ineq.inequality_margins([(1.5, 2.5, 1.0)] * 2, [(1.3, 1.3, 0.0), (0.7, 0.7, 0.7)],
                                 [(0.4, 0.6, 0.0), (0.2, 0.3, 0.5)], [(0.9, 1.7, 0.9)] * 2)
    ok = ok and all(abs(v) <= 1e-12 for v in (eq[0, 0], eq[1, 0], eq[0, 2]))
    _report(7, "coefficient inequalities: 1e4 fuzz trials + exact equality cases",
            ok, t0, f"min margins a={min(margins['a']):.2g} b={min(margins['b']):.2g} "
                    f"c={min(margins['c']):.2g}")


def test_criterion_08_local_clt_at_barycenter():
    t0 = time.time()
    ok = True
    for d, m_list in ((1, (16, 64, 256, 1024)), (2, (16, 64, 256))):
        bary = [1.0 / (d + 1)] * d
        for r, s in ((1, 1), (1, 2), (2, 2), (2, 3)):
            phi = spoly.phi_eval(r, s, bary)
            errs = [
                abs(m ** (d / 2.0) * spoly.s_eval(r, s, m, d, bary) - phi)
                for m in m_list
            ]
            ok = ok and all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
    _report(8, "scaled lattice sum error strictly decreasing toward Gaussian limit", ok, t0)


def test_criterion_09_domination_by_unit_case():
    t0 = time.time()
    rng = np.random.Generator(np.random.PCG64(9))
    worst = -math.inf
    for _ in range(50):
        d = int(rng.integers(1, 4))
        x = rng.dirichlet(np.ones(d + 1))[:-1]
        m = int(rng.integers(1, 31))
        base = spoly.s_eval(1, 1, m, d, x)
        for r in (1, 2, 3):
            for s in (1, 2, 3):
                worst = max(worst, spoly.s_eval(r, s, m, d, x) - base)
    _report(9, "S_{r,s,m} <= S_{1,1,m} on 50 interior points",
            worst <= 1e-12, t0, f"worst excess {worst:.3g}")


def test_criterion_10_determinant_two_routes():
    t0 = time.time()
    rng = np.random.Generator(np.random.PCG64(10))
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        x = rng.dirichlet(np.ones(d + 1))[:-1]
        r = int(rng.integers(1, 5))
        s = int(rng.integers(1, 5))
        a = spoly.det_covariance(r, s, x)
        b = oracles.det_covariance(r, s, SimplexPoint(x))
        worst = max(worst, abs(a - b) / abs(a))
    _report(10, "covariance determinant: product vs dense route",
            worst <= 1e-12, t0, f"worst rel {worst:.3g}")


def test_criterion_11_special_function_residuals():
    t0 = time.time()
    worst_dup = max(
        abs(specfun.duplication_residual(10.0 ** (-3.0 + 9.0 * i / 999.0)))
        for i in range(1000)
    )
    rng = np.random.Generator(np.random.PCG64(11))
    worst_poly = 0.0
    for _ in range(500):
        n = int(rng.integers(0, 9))
        z = 10.0 ** rng.uniform(-2, 4)
        lhs = specfun.polygamma(n, z + 1.0) - specfun.polygamma(n, z)
        rhs = (-1.0) ** n * math.gamma(n + 1) / z ** (n + 1)
        scale = max(abs(specfun.polygamma(n, z)), abs(rhs))
        worst_poly = max(worst_poly, abs(lhs - rhs) / scale)
    worst_ratio = max(
        spoly.gamma_ratio_residual(m)
        for m in sorted({int(round(10.0 ** (1.0 + 3.0 * i / 199.0))) for i in range(200)})
    )
    ok = worst_dup <= 1e-12 and worst_poly <= 1e-11 and worst_ratio <= 0.05
    _report(11, "duplication, polygamma recurrence, and gamma-ratio residuals",
            ok, t0, f"dup {worst_dup:.2g}, poly {worst_poly:.2g}, ratio {worst_ratio:.2g}")


def test_criterion_12_estimator_coincidence_and_convergence():
    t0 = time.time()
    pts = np.array([[0.15], [0.5], [0.82], [0.5], [0.07]])
    from bernsimplex.simplex import SampleSet

    ss, sh = SampleSet(pts, "simplex"), SampleSet(pts, "hypercube")
    ok = all(
        abs(est.bernstein_cdf_simplex(ss, m, (x,))
            - est.bernstein_cdf_hypercube(sh, m, (x,))) <= 1e-12
        for m in (1, 9, 50)
        for x in (0.0, 0.3, 0.5, 0.97, 1.0)
    )
    samp = sample_dirichlet((1.0, 1.0, 1.0), 2000, seed=42)
    for vertex in ((1.0, 0.0), (0.0, 1.0), (0.0, 0.0)):
        ok = ok and abs(
            est.bernstein_cdf_simplex(samp, 25, vertex)
            - empirical_cdf(samp, vertex)
        ) <= 1e-12
    grid = spoly.simplex_midpoint_grid(2, 12)
    fn = [empirical_cdf(samp, tuple(row)) for row in grid]
    sup = {
        m: sup_error_on_grid(
            [est.bernstein_cdf_simplex(samp, m, row) for row in grid], fn)
        for m in (10, 100)
    }
    ok = ok and sup[100] < sup[10]
    _report(12, "estimator coincidence, vertex exactness, sup-error decrease",
            ok, t0, f"sup m=10 {sup[10]:.3g} -> m=100 {sup[100]:.3g}")


def test_application_density_variance_limit():
    # Under uniform samples on [0,1] the hypercube Bernstein density estimator
    # has the exact n Var f(x) = m S_{1,1,m-1}(x) - 1 (TestDensityVarianceIdentity
    # checks it against the estimator's weights), so m^{-1/2} n Var f(x) tends
    # to phi_{1,1}(x) = 1/sqrt(4 pi x(1-x)).  Its ratio to phi is
    # 1 - 1/(phi sqrt(m)) + e_m/sqrt(m): the check asks that e_m stay positive
    # and fall at the m^{-1/2} rate, e_2m < 0.75 e_m and sqrt(m) e_m <= 0.6
    # (measured 0.70-0.71 and 0.37-0.53), so sqrt(m) (ratio - 1) tends to
    # -1/phi(x), within 0.0065 of it at m = 6400.
    t0 = time.time()
    ok, details = True, []
    for x in (0.2, 0.5, 0.7):
        point = (x,)
        phi = spoly.phi_eval(1, 1, point)
        ms, lead, errs = (100, 200, 400, 800, 1600, 3200, 6400), [], []
        for m in ms:
            s11 = spoly.s_eval(1, 1, m - 1, 1, point)
            ratio = m**-0.5 * (m * s11 - 1.0) / phi
            lead.append(math.sqrt(m) * (ratio - 1.0))
            errs.append(lead[-1] + 1.0 / phi)
        ok = ok and all(0.0 < b < 0.75 * a for a, b in zip(errs, errs[1:]))
        ok = ok and all(math.sqrt(m) * e <= 0.6 for m, e in zip(ms, errs))
        details.append(f"x={x}: {lead[-1]:.4f} vs {-1.0 / phi:.4f}")
    _report("application", "m^{-1/2} n Var of the density estimator tends to phi_{1,1}",
            ok, t0, "; ".join(details))


def test_application_density_variance_limit_product():
    # At d >= 2 the exact n Var f(x) = m^d prod_i S_{1,1,m-1}(x_i) - 1, so
    # m^{-d/2} n Var f(x) tends to prod_i phi_{1,1}(x_i).  Each factor
    # m^{1/2} S_{1,1,m-1}(x_i) / phi_{1,1}(x_i) is 1 + O(1/m) (the d = 1 check
    # above), and the -m^{-d/2} term is O(1/m) at d = 2, so the ratio's error
    # falls at the 1/m rate.  Measured for m = 100..6400: e_2m / e_m in
    # 0.500-0.501 at d = 2 and 0.508-0.560 at d = 3, and m |e_m| in 1.61-1.79
    # at d = 2 and 0.92-1.26 at d = 3; the check asks 0.4 < e_2m / e_m < 0.6
    # and m |e_m| <= 2.5.
    t0 = time.time()
    ms = (100, 200, 400, 800, 1600, 3200, 6400)
    s11, phi = {}, {}
    for x in (0.2, 0.3, 0.5, 0.7):
        point = (x,)
        phi[x] = spoly.phi_eval(1, 1, point)
        for m in ms:
            s11[x, m] = spoly.s_eval(1, 1, m - 1, 1, point)
    ok, details = True, []
    for xs in ((0.2, 0.5), (0.3, 0.7), (0.2, 0.5, 0.7)):
        d = len(xs)
        limit = math.prod(phi[x] for x in xs)
        errs = [m ** (-d / 2.0) * (m**d * math.prod(s11[x, m] for x in xs) - 1.0) / limit - 1.0
                for m in ms]
        ok = ok and all(0.4 < b / a < 0.6 for a, b in zip(errs, errs[1:]))
        ok = ok and all(m * abs(e) <= 2.5 for m, e in zip(ms, errs))
        details.append(f"x={xs}: m*err {ms[-1] * errs[-1]:.4f}")
    _report("application", "m^{-d/2} n Var of the density estimator tends to prod phi_{1,1}",
            ok, t0, "; ".join(details))


def test_second_order_term_of_s11():
    # m^{d/2} S_{1,1,m}(x) / phi_{1,1}(x) = 1 + c1(x)/m + O(1/m^2), with
    # c1(x) = (sum_{i <= d+1} 1/x_i - (d^2 + 4d + 1)) / 16 (the first lattice
    # Edgeworth term of P(X - Y = 0), X, Y iid Mult(m, x)).  So with
    # e_m = m^{d/2} S / phi - 1, m (m e_m - c1) stays bounded.  Measured
    # (maximum over m): 0.0375 at x = 0.3 and 0.0080 at x = 0.5 for
    # m = 25..400, 0.157 at (0.2, 0.5) and 1.19 at (0.3, 0.6) for m = 25..200,
    # falling in m every time; each bound is that maximum plus a fifth.  A c1
    # off by delta would make m (m e_m - c1) grow like m delta.
    t0 = time.time()
    ok, details = True, []
    for x, ms, bound in (((0.3,), (25, 50, 100, 200, 400), 0.045),
                         ((0.5,), (25, 50, 100, 200, 400), 0.0096),
                         ((0.2, 0.5), (25, 50, 100, 200), 0.19),
                         ((0.3, 0.6), (25, 50, 100, 200), 1.43)):
        d = len(x)
        phi = spoly.phi_eval(1, 1, x)
        c1 = (sum(1.0 / v for v in SimplexPoint(x).full) - (d * d + 4 * d + 1)) / 16.0
        scaled = []
        for m in ms:
            e = m ** (d / 2.0) * spoly.s_eval(1, 1, m, d, x) / phi - 1.0
            scaled.append(m * (m * e - c1))
        ok = ok and all(0.0 < v <= bound for v in scaled)
        details.append(f"x={x}: m*(m*e - c1) {scaled[0]:.4f}..{scaled[-1]:.4f}")
    _report("asymptotics", "m (m^{d/2} S_{1,1,m} / phi_{1,1} - 1) tends to c1(x)",
            ok, t0, "; ".join(details))
