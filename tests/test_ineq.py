import functools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bernsimplex import ineq
from bernsimplex.report import ScanReport
from bernsimplex.simplex import _weight_rows
from oracles import WeightVector


def fuzz(trials, dmax, seed, corrupt=False):
    """fuzz_inequalities' report and its rows, read to the end."""
    report = ScanReport()
    rows = oracles.rows_of(ineq.fuzz_inequalities(trials, dmax, seed, report, corrupt=corrupt))
    return report, rows


BINOM = (1.0, 1.0)
TRINOM = (1.0, 1.0, 1.0)


def log_c(gamma, a):
    """ln C(a) at the weights gamma, from a one-row block."""
    return ineq.log_coeff([gamma], [[a]])[0, 0]


def margins(gamma, a=(1.0, 2.0), lam=None, a123=(1.0, 1.0, 1.0)):
    """The (log-convexity, superadditivity, exchange) margins of one trial;
    lam defaults to equal weights."""
    lam = [1.0 / len(a)] * len(a) if lam is None else lam
    return ineq.inequality_margins([gamma], [a], [lam], [a123])[0]


class TestLogCoeff:
    def test_hand_values(self):
        assert log_c(BINOM, 1.0) == pytest.approx(math.log(2.0), rel=1e-12)
        assert log_c(BINOM, 2.0) == pytest.approx(math.log(6.0), rel=1e-12)

    def test_integer_consistency_big(self):
        # integer a*gamma: exp(log C) matches exact big-integer multinomials
        cases = [
            ((3, 4, 5), 7),
            ((10, 20, 30, 40), 2),
            ((25, 25, 25, 25, 1), 1),
        ]
        for gamma, a in cases:
            exact = math.factorial(a * sum(gamma))
            for g in gamma:
                exact //= math.factorial(a * g)
            assert math.exp(log_c([float(g) for g in gamma], float(a))) == pytest.approx(
                exact, rel=1e-11
            )

    def test_domain_error(self):
        # a = 0 is padding (ln C(0) = 0); below it nothing is defined
        assert log_c(BINOM, 0.0) == 0.0
        with pytest.raises(ValueError):
            log_c(BINOM, -0.5)


def _padded(ws):
    """The weight matrix of WeightVectors ws: one gamma per row, zero padded."""
    out = np.zeros((len(ws), max(len(w.gamma) for w in ws)))
    for row, w in zip(out, ws):
        row[:len(w.gamma)] = w.gamma
    return out


class TestLogCoeffBlock:
    # zero weights inside a row as well as padding after it
    WS = [WeightVector(BINOM), WeightVector(TRINOM), WeightVector((2.0, 0.0, 1.5)),
          WeightVector((0.3, 4.0, 0.0, 0.7))]
    W = _padded(WS)
    A = np.array([[1.0, 2.0, 0.0], [0.05, 7.5, 20.0], [3.3, 0.0, 0.0], [0.4, 11.0, 0.9]])

    def test_against_scalar_route(self):
        got = ineq.log_coeff(self.W, self.A)
        assert got.shape == self.A.shape
        for w, row_a, row in zip(self.WS, self.A, got):
            for a, value in zip(row_a, row):
                if a == 0.0:
                    assert value == 0.0
                    continue
                want = oracles.log_coeff(w, float(a))
                assert value == pytest.approx(want, rel=1e-14, abs=1e-14)

    def test_one_log_gamma_call_on_live_arguments(self, monkeypatch):
        sizes = []
        log_gamma = ineq.log_gamma
        monkeypatch.setattr(ineq, "log_gamma", lambda z: sizes.append(z.size) or log_gamma(z))
        ineq.log_coeff(self.W, self.A)
        # a > 0 per row, times M and the nonzero weights
        assert sizes == [2 * 3 + 3 * 4 + 1 * 3 + 3 * 4]

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_domain_errors(self, bad):
        a = self.A.copy()
        a[1, 2] = bad
        with pytest.raises(ValueError):
            ineq.log_coeff(self.W, a)

    @pytest.mark.parametrize("bad", [-1e-300, math.nan, math.inf, -math.inf])
    def test_weight_errors(self, bad):
        # what WeightVector rejects in one row, the matrix rejects in any
        w = self.W.copy()
        w[2, 1] = bad
        with pytest.raises(ValueError):
            WeightVector(w[2])
        with pytest.raises(ValueError):
            ineq.log_coeff(w, self.A)

    def test_zero_mass_row(self):
        w = self.W.copy()
        w[3] = 0.0
        with pytest.raises(ValueError, match="mass"):
            ineq.log_coeff(w, self.A)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            ineq.log_coeff(self.W, self.A[:3])
        with pytest.raises(ValueError):
            ineq.log_coeff(self.W, self.A.reshape(-1))
        for w in (self.W[:, :1], self.W.reshape(-1), self.W[None]):
            with pytest.raises(ValueError):
                ineq.log_coeff(w, self.A)

    @pytest.mark.parametrize("seed", range(5))
    def test_m_column_is_weightvector_m(self, seed):
        # M is the built-in sum, which Python 3.12+ compensates, in the weight
        # rule and so in WeightVector: rows of many weights of mixed size,
        # where the order of adding shows
        rng = np.random.Generator(np.random.PCG64(seed))
        gamma = rng.standard_exponential((300, 12)) * np.exp(rng.uniform(-30.0, 30.0, (300, 12)))
        gamma[:, 7:][rng.random((300, 5)) < 0.5] = 0.0
        blocks = [gamma, ineq._draw_trials(rng, 200, 9)[2]]
        for g in blocks:
            want = [sum(row) for row in g.tolist()]
            assert _bits(_weight_rows(g)[:, 0]) == _bits(want)
            assert _bits([WeightVector(row).M for row in g.tolist()]) == _bits(want)


class TestKernelPair:
    """_coef_stack and _row_sum, the kernel pair under every ln C, ln g and
    h^{(n)} evaluation, log_coeff's and monotone's alike."""

    # rows of unequal length, with their interleaved extras (one fewer each)
    ROWS = [[3.0, -1.5, 2.0], [math.inf, -2.0, 1.0], [1.0, math.nan, 5.0, -7.0], [-0.0],
            [0.5, -0.5, -0.0], [-math.inf, 4.0, math.inf], [1e308, 1e308, -1e308], [-0.0, -0.0]]
    EXTRAS = [[0.25, -7.0], [-math.inf, 2.0], [-1.0, 0.0, math.nan], [],
              [-0.0, 0.5], [1.0, -1.0], [-1e308, 1e308], [-0.0]]

    @staticmethod
    def fold(values):
        """Python's left-to-right sum of a list (what sum does before 3.12)."""
        return functools.reduce(operator.add, values)

    @staticmethod
    def padded(rows, width, pad):
        return np.array([row + [pad] * (width - len(row)) for row in rows])

    @pytest.mark.parametrize("pad", [-0.0, 0.0])
    def test_row_sum_is_a_left_fold(self, pad):
        want = [self.fold(row) for row in self.ROWS]
        with np.errstate(over="ignore", invalid="ignore"):
            got = ineq._row_sum(self.padded(self.ROWS, 5, pad))
        # +0.0 padding changes only a -0.0 sum, to +0.0
        keep = [math.copysign(1.0, pad) < 0.0 or _bits(w) != _bits(-0.0) for w in want]
        assert _bits(got[keep]) == _bits(np.array(want)[keep])
        assert _bits(got[np.logical_not(keep)]) == _bits([0.0] * keep.count(False))

    def test_row_sum_interleaves_extras(self):
        lists = [[row[0], *(v for pair in zip(row[1:], extra) for v in pair)]
                 for row, extra in zip(self.ROWS, self.EXTRAS)]
        # extra[:, 0] is never added
        extras = self.padded([[math.nan, *extra] for extra in self.EXTRAS], 5, -0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            got = ineq._row_sum(self.padded(self.ROWS, 5, -0.0), extras)
        assert _bits(got) == _bits([self.fold(values) for values in lists])

    # a zero weight inside a row, padding after it, and a * c = 1e-400 that
    # underflows to 0 but is live
    COEFS = np.array([[3.0, 1.0, 2.0, 0.0], [0.5, 0.5, 0.0, 0.0], [2.0, 0.0, 1e-200, 0.0]])

    @staticmethod
    def recording():
        calls = []

        def fn(z):
            calls.append(z.copy())
            return -np.sqrt(z)
        return calls, fn

    def test_coef_stack_per_row_a(self):
        # ineq's shape: one row of a per coefficient row
        a = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 4.0], [0.25, 1e-200, 0.0]])
        calls, fn = self.recording()
        got = ineq._coef_stack(fn, self.COEFS, a)
        live = [(b, k, j) for b in range(3) for k in range(4) for j in range(3)
                if self.COEFS[b, k] > 0.0 and a[b, j] > 0.0]
        args = [a[b, j] * self.COEFS[b, k] + 1.0 for b, k, j in live]
        assert [z.tolist() for z in calls] == [args]
        want = np.zeros((3, 4, 3))
        for (b, k, j), z in zip(live, args):
            want[b, k, j] = -math.sqrt(z)
        assert _bits(got) == _bits(want)

    def test_coef_stack_shared_grid(self):
        # monotone's shape: every row reads one (point, step) grid
        grid = np.array([[0.5, 1.0, 7.0], [2.0, 3.0, 1e-3]])
        calls, fn = self.recording()
        got = ineq._coef_stack(fn, self.COEFS, np.broadcast_to(grid, (3,) + grid.shape))
        args = [c * a + 1.0 for c in self.COEFS.ravel() if c > 0.0 for a in grid.ravel()]
        assert [z.tolist() for z in calls] == [args]
        want = np.zeros((3, 4) + grid.shape)
        want[self.COEFS > 0.0] = -np.sqrt(np.array(args).reshape((-1,) + grid.shape))
        assert _bits(got) == _bits(want)


class TestExactIntegerNodes:
    @pytest.mark.parametrize("seed", range(3))
    def test_log_coeff_is_ln_of_the_multinomial(self, seed):
        # one block of 60 rows: d = 1..5, integer weights with zeros, integer a
        rng = _gen(seed)
        gammas = oracles.integer_weights(rng, 60)
        a = rng.integers(1, 31, (60, 4))
        got = ineq.log_coeff(_padded([WeightVector(g) for g in gammas]), a.astype(float))
        for gamma, row_a, row in zip(gammas, a.tolist(), got.tolist()):
            for n, value in zip(row_a, row):
                want = oracles.log_rational(Fraction(oracles.multinomial(gamma, n)))
                scale = oracles.log_coeff_scale(WeightVector(gamma), n)
                assert abs(value - want) <= oracles.EXACT_REL_TOL * scale, (gamma, n)


def _integer_trials(seed, rows):
    """rows trials (gamma, a, a123) of Python ints: weights in 0..10 (d = 1..5),
    k = 2..5 values a_j whose mean is an integer, and a1 <= a3.  Every third
    row is an equality node, all a_j equal and a1 = a3, which the float
    fuzzer never draws."""
    rng = _gen(seed)
    trials = []
    for i, gamma in enumerate(oracles.integer_weights(rng, rows)):
        k = int(rng.integers(2, 6))
        a = [int(v) for v in rng.integers(1, 9, k)]
        a1, a3 = sorted(int(v) for v in rng.integers(1, 9, 2))
        a2 = int(rng.integers(1, 9))
        if i % 3 == 0:
            a, a3 = [a[0]] * k, a1
        a[-1] += -sum(a) % k  # an integer mean
        trials.append((gamma, a, (a1, a2, a3)))
    return trials


def _exact_ratios(gamma, a, a123):
    """The three inequalities as ratios of exact integers, each >= 1:
    prod_j C(a_j) / C(mean)^k, C(sum_j a_j) / prod_j C(a_j) and
    C(a1) C(a2 + a3) / (C(a1 + a2) C(a3))."""
    def c(n):
        return oracles.multinomial(gamma, n)
    k, (a1, a2, a3) = len(a), a123
    prod = math.prod(c(v) for v in a)
    return (Fraction(prod, c(sum(a) // k) ** k), Fraction(c(sum(a)), prod),
            Fraction(c(a1) * c(a2 + a3), c(a1 + a2) * c(a3)))


class TestExactIntegerInequalities:
    """At integer weights and integer a, C(a) is a multinomial coefficient,
    so the three inequalities, and when they hold with equality, are
    statements about integers: checked exactly, with no tolerance."""

    @pytest.mark.parametrize("seed", range(3))
    def test_inequalities_hold_exactly(self, seed):
        for gamma, a, a123 in _integer_trials(seed, 60):
            logconvex, superadditive, exchange = _exact_ratios(gamma, a, a123)
            # with one nonzero weight C is 1 at every a, and every ratio is 1
            strict = sum(g > 0 for g in gamma) >= 2
            assert logconvex >= 1 and (logconvex == 1) == (not strict or len(set(a)) == 1)
            assert superadditive >= 1 and (superadditive == 1) == (not strict)
            assert exchange >= 1 and (exchange == 1) == (not strict or a123[0] == a123[2])

    @pytest.mark.parametrize("seed", range(3))
    def test_margins_match_exact_log_ratios(self, seed):
        # one inequality_margins call on the whole block, equal weights 1/k
        trials = _integer_trials(seed, 60)
        a = np.zeros((len(trials), 5))
        lam = np.zeros((len(trials), 5))
        for row_a, row_lam, (_, a_j, _) in zip(a, lam, trials):
            row_a[:len(a_j)] = a_j
            row_lam[:len(a_j)] = 1.0 / len(a_j)
        got = ineq.inequality_margins(_padded([WeightVector(g) for g, _, _ in trials]), a, lam,
                                      [a123 for _, _, a123 in trials])
        equal = 0
        for (gamma, a_j, a123), row in zip(trials, got.tolist()):
            ratios = _exact_ratios(gamma, a_j, a123)
            want = [oracles.log_rational(q) for q in ratios]
            want[0] /= len(a_j)
            assert max(abs(g - w) for g, w in zip(row, want)) <= ineq.FUZZ_TOL, (gamma, a_j, a123)
            equal += ratios[0] == 1 and ratios[2] == 1
        assert equal >= 20


class TestWeightedLogConvexity:
    def test_hand_value(self):
        margin = margins(BINOM, (1.0, 3.0), (0.5, 0.5))[0]
        assert margin == pytest.approx(math.log(math.sqrt(40.0) / 6.0), rel=1e-10)
        assert margin > 0.0

    def test_equality_case(self):
        margin = margins(BINOM, (2.5, 2.5, 2.5), (0.2, 0.3, 0.5))[0]
        assert abs(margin) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            margins(BINOM, (1.0,), (1.0,))
        with pytest.raises(ValueError):
            margins(BINOM, (1.0, 2.0), (0.7, 0.7))

    @given(
        a=st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=2, max_size=5),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=100)
    def test_nonnegative(self, a, seed):
        lam = np.random.Generator(np.random.PCG64(seed)).dirichlet(np.ones(len(a)))
        assert margins(TRINOM, a, lam)[0] >= -1e-12


class TestSuperadditivity:
    def test_hand_values(self):
        assert margins(BINOM, (1.0, 1.0))[1] == pytest.approx(
            math.log(6.0) - math.log(4.0), rel=1e-10
        )
        assert margins(TRINOM, (1.0, 1.0))[1] == pytest.approx(
            math.log(90.0) - math.log(36.0), rel=1e-10
        )

    def test_degenerate_gamma_zero_margin(self):
        # single nonzero weight: C == 1 identically
        assert margins((2.0, 0.0), (1.0, 3.0))[1] == pytest.approx(0.0, abs=1e-12)

    @given(a=st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=2, max_size=5))
    @settings(max_examples=100)
    def test_strictly_positive(self, a):
        assert margins(TRINOM, a)[1] > 0.0


class TestExchange:
    def test_hand_value(self):
        assert margins(BINOM, a123=(1.0, 1.0, 2.0))[2] == pytest.approx(
            math.log(40.0 / 36.0), rel=1e-10
        )

    def test_equality_case(self):
        assert margins(BINOM, a123=(2.0, 5.0, 2.0))[2] == pytest.approx(0.0, abs=1e-12)

    def test_precondition(self):
        with pytest.raises(ValueError):
            margins(BINOM, a123=(3.0, 1.0, 2.0))

    def test_logconvexity_link(self):
        # with lam = (a3-a1)/(a2+a3-a1), a1+a2 and a3 are the two convex
        # combinations of {a1, a2+a3}; the exchange margin is the sum of the
        # two log-convexity margins at those interpolation points
        for inst in (BINOM, TRINOM):
            for a1, a2, a3 in [(1.0, 2.0, 4.0), (0.3, 5.0, 0.9)]:
                lam = (a3 - a1) / (a2 + a3 - a1)
                m = ineq.inequality_margins([inst] * 2, [(a1, a2 + a3)] * 2,
                                            [(lam, 1.0 - lam), (1.0 - lam, lam)],
                                            [(a1, a2, a3)] * 2)
                assert m[0, 2] == pytest.approx(m[0, 0] + m[1, 0], abs=1e-12)

    @given(
        vals=st.tuples(
            st.floats(min_value=0.05, max_value=20.0),
            st.floats(min_value=0.05, max_value=20.0),
            st.floats(min_value=0.05, max_value=20.0),
        )
    )
    @settings(max_examples=100)
    def test_nonnegative(self, vals):
        a1, a3 = sorted((vals[0], vals[2]))
        assert margins(TRINOM, a123=(a1, vals[1], a3))[2] >= -1e-12


class TestMarginDomain:
    """A trial outside the inequalities' domain raises ValueError, for the
    reason named; row 1 of each call is a valid trial."""

    GOOD = ((1.0, 2.0, 0.0), (0.5, 0.5, 0.0), (1.0, 1.0, 2.0))  # a, lam, a123

    @pytest.mark.parametrize("field,value,reason", [
        # a2 <= 0 gave a margin: -0.118 at a2 = -0.5 and 0.0 at a2 = 0
        (2, (1.0, -0.5, 2.0), "a1, a2 and a3"),
        (2, (1.0, 0.0, 2.0), "a1, a2 and a3"),
        (2, (0.0, 1.0, 2.0), "a1, a2 and a3"),
        (2, (-1.0, 1.0, 2.0), "a1, a2 and a3"),
        (2, (1.0, math.nan, 2.0), "a1, a2 and a3"),
        (2, (1.0, math.inf, 2.0), "a1, a2 and a3"),
        (2, (math.nan, 1.0, 2.0), "a1, a2 and a3"),
        (2, (1.0, 1.0, math.inf), "a1, a2 and a3"),
        (2, (3.0, 1.0, 2.0), "a1 <= a3"),
        (0, (1.0, 0.0, 0.0), "k >= 2"),
        (0, (0.0, 0.0, 0.0), "k >= 2"),
        (0, (1.0, -2.0, 0.0), "nonnegative"),
        (0, (1.0, math.nan, 0.0), "nonnegative"),
        (0, (1.0, math.inf, 0.0), "nonnegative"),
        (1, (1.5, -0.5, 0.0), "lambda"),
        (1, (1.0, 0.0, 0.0), "lambda"),
        (1, (0.5, math.nan, 0.0), "lambda"),
        (1, (0.5, 0.25, 0.25), "lambda"),
        (1, (0.5, 0.5 + 2e-12, 0.0), "lambda"),
        (1, (0.5, 0.4, 0.0), "lambda"),
    ])
    def test_rejected(self, field, value, reason):
        bad = list(self.GOOD)
        bad[field] = value
        a, lam, a123 = zip(bad, self.GOOD)
        with pytest.raises(ValueError, match=reason):
            ineq.inequality_margins([BINOM, TRINOM], a, lam, a123)

    def test_shapes(self):
        a, lam, a123 = ([v] for v in self.GOOD)
        assert ineq.inequality_margins([BINOM], a, lam, a123).shape == (1, 3)
        for args in (([(1.0,)], [(1.0,)], a123), (a, [(0.5, 0.5)], a123),
                     (a, lam, [(1.0, 2.0)]), (a * 2, lam * 2, a123), (a[0], lam[0], a123)):
            with pytest.raises(ValueError):
                ineq.inequality_margins([BINOM], *args)


class TestFuzz:
    def test_pass(self):
        report, _ = fuzz(1000, 5, seed=1234)
        assert report.passed
        assert report.max_violation == 0.0

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError):
            ineq.fuzz_inequalities(0, 5, 0, ScanReport())

    def test_corrupted_fails(self):
        report, _ = fuzz(100, 5, seed=1234, corrupt=True)
        assert not report.passed
        assert report.max_violation < 0.0

    def test_row_format(self):
        _, rows = fuzz(3, 2, seed=7)
        assert len(rows) == 9
        trial, d, m_total, check, margin = rows[0]
        assert trial == 0 and check == "a"
        assert 1 <= d <= 2 and 0.1 <= m_total <= 50.0


class TestFuzzAgainstOracle:
    @pytest.mark.parametrize("seed,corrupt", [(77, False), (1234, False), (0, False), (5, False),
                                              (31, False), (1234, True)])
    def test_matches_trial_by_trial_route(self, seed, corrupt):
        trials = 1000
        got, got_rows = fuzz(trials, 5, seed, corrupt=corrupt)
        want = oracles.fuzz_inequalities(trials, 5, seed, corrupt=corrupt)
        assert got.passed == want.passed
        assert np.sign(got.max_violation) == np.sign(want.max_violation)
        assert [row[:4] for row in got_rows] == [row[:4] for row in want.rows]
        # array log_gamma may differ from the scalar route in the last bits of
        # every ln Gamma term; over 21,000 margins (7 seeds) the worst
        # difference was 0.30 eps times the scale below
        eps = np.finfo(float).eps
        for t, d, M, w, a, lam, a1, a2, a3 in oracles.fuzz_draws(trials, 5, seed):
            nodes = oracles.fuzz_nodes(a, lam, a1, a2, a3)
            for g_row, w_row in zip(got_rows[3 * t:3 * t + 3], want.rows[3 * t:3 * t + 3]):
                scale = sum(abs(c) * oracles.log_coeff_scale(w, v) for c, v in nodes[g_row[3]])
                assert abs(g_row[4] - w_row[4]) <= 16 * eps * scale, g_row

    def test_blocks_do_not_change_rows(self, monkeypatch, small_blocks):
        whole, whole_rows = fuzz(41, 5, seed=3)
        calls, margin_calls = [], []
        log_coeff, inequality_margins = ineq.log_coeff, ineq.inequality_margins
        monkeypatch.setattr(ineq, "log_coeff", lambda w, a: calls.append(len(w)) or log_coeff(w, a))
        monkeypatch.setattr(ineq, "inequality_margins", lambda w, *args: (
            margin_calls.append(len(w)) or inequality_margins(w, *args)))
        # (5 + 6) nodes of (5 + 2) gamma arguments per trial at most, and a
        # trial holds 120 + 5 floats per argument: 6 trials a block
        small_blocks(6, 120 + 5 * 11 * 7)
        split, split_rows = fuzz(41, 5, seed=3)
        assert calls == [6] * 6 + [5]
        assert margin_calls == [6] * 6 + [5]
        assert split_rows == whole_rows
        assert (split.passed, split.max_violation) == (whole.passed, whole.max_violation)


def _gen(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestDrawStream:
    """The identities of the installed numpy that the fuzzer's lighter draw
    rests on, each checked bit for bit: a numpy that breaks one fails here by
    name, not only in a golden hash."""

    LO, HI = math.log(0.05), math.log(20.0)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_dirichlet_is_normalised_exponentials(self, k):
        # k = 2..6 are the fuzzer's at dmax 5; from k = 8 on, numpy's
        # pairwise e.sum() adds in another order, hence the left-to-right sum
        for seed in range(200):
            r_dir, r_exp = _gen(seed), _gen(seed)
            for _ in range(5):
                want = r_dir.dirichlet(np.ones(k))
                e = np.empty(k)
                r_exp.standard_exponential(out=e)
                assert _bits(e * (1.0 / sum(e.tolist()))) == _bits(want)

    def test_uniform_is_affine_in_random(self):
        for seed in range(500):
            r_two_one, r_three, r_raw = _gen(seed), _gen(seed), _gen(seed)
            want = np.append(r_two_one.uniform(self.LO, self.HI, size=2),
                             r_two_one.uniform(self.LO, self.HI))
            assert _bits(r_three.uniform(self.LO, self.HI, size=3)) == _bits(want)
            assert _bits(self.LO + (self.HI - self.LO) * r_raw.random(3)) == _bits(want)
        r_uni, r_raw = _gen(9), _gen(9)
        want = r_uni.uniform(self.LO, self.HI, size=20000)
        assert _bits(self.LO + (self.HI - self.LO) * r_raw.random(20000)) == _bits(want)

    def test_exp_does_not_depend_on_the_array(self):
        x = _gen(3).uniform(self.LO, self.HI, size=600)
        one_by_one = np.array([np.exp(v) for v in x.tolist()])
        assert _bits(np.exp(x)) == _bits(one_by_one)
        # every length and offset a SIMD loop can split differently
        for n in range(1, 18):
            for off in range(0, 40, 7):
                assert _bits(np.exp(x[off:off + n])) == _bits(one_by_one[off:off + n])
        assert _bits(np.exp(x[::3])) == _bits(one_by_one[::3])

    @pytest.mark.parametrize("dmax", [1, 3, 5, 9])
    def test_draws_match_oracle_across_blocks(self, dmax):
        seed, sizes = 12 + dmax, (7, 1, 13, 19)
        rng = _gen(seed)
        got = []
        for n in sizes:
            ds, M, gamma, a, lam, a123 = ineq._draw_trials(rng, n, dmax)
            assert gamma.shape == (n, dmax + 1)
            for i in range(n):
                k, d = int((a[i] > 0.0).sum()), ds[i]
                assert a[i, :k].all() and not a[i, k:].any() and not lam[i, k:].any()
                assert not gamma[i, d + 1:].any()
                got.append((d, M[i], gamma[i, :d + 1], a[i, :k], lam[i, :k], *a123[i]))
        want = list(oracles.fuzz_draws(sum(sizes), dmax, seed))
        assert len(got) == len(want)
        for g, (t, d, M, w, a, lam, a1, a2, a3) in zip(got, want):
            assert g[:2] == (d, M) and _bits(g[2]) == _bits(w.gamma), t
            assert _bits(g[3]) == _bits(a) and _bits(g[4]) == _bits(lam), t
            assert _bits(g[5:]) == _bits([a1, a2, a3]), t
