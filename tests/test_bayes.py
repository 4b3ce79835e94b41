"""Tests for the data-augmentation Gibbs samplers and posterior summaries."""

import csv

import numpy as np
import pytest
from scipy import special

from discretefit import (
    ChainDraws,
    Dataset,
    Link,
    ModelSpec,
    PriorSpec,
    bayes,
    fit_ml,
    gibbs_binary_probit,
    gibbs_ordinal_probit,
    posterior_summary,
    simulate_dataset,
)
from discretefit import distributions
from discretefit import likelihood as lk

from oracles import gibbs_probit_reference


def _empty_binary(k=2):
    return Dataset(y=np.zeros(0, dtype=int), X=np.zeros((0, k)),
                   column_names=[f"b{i}" for i in range(k)], J=2)


class TestBinarySampler:
    def test_agrees_with_mle_under_diffuse_prior(self):
        rng = np.random.default_rng(900)
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=3, intercept=True)
        data = simulate_dataset(spec, [0.5, -1.0, 0.25], [], 2000, rng)
        fit = fit_ml(spec, data)
        chain = gibbs_binary_probit(data, S=2500, burn=500, rng=17)
        for row, mle in zip(posterior_summary(chain), fit.params.beta):
            assert abs(row["mean"] - mle) <= 3.0 * row["sd"]

    def test_no_data_recovers_prior(self):
        chain = gibbs_binary_probit(_empty_binary(), S=10_000, burn=0, rng=18)
        draws = chain.draws()
        # prior is N(0, 100 I): MC error of the mean is 10/sqrt(S) = 0.1
        np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.4)
        np.testing.assert_allclose(draws.var(axis=0, ddof=1), 100.0, atol=6.0)
        cov = np.cov(draws.T)
        assert abs(cov[0, 1]) < 4.0

    def test_informative_prior_recovered(self):
        prior = PriorSpec(b0=np.array([2.0, -1.0]), B0=np.diag([4.0, 0.25]))
        chain = gibbs_binary_probit(_empty_binary(), prior=prior, S=10_000, burn=0, rng=19)
        draws = chain.draws()
        np.testing.assert_allclose(draws.mean(axis=0), [2.0, -1.0], atol=0.1)
        np.testing.assert_allclose(draws.var(axis=0, ddof=1), [4.0, 0.25], rtol=0.1)

    def test_same_seed_identical(self):
        rng = np.random.default_rng(901)
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=2, intercept=True)
        data = simulate_dataset(spec, [0.3, 0.6], [], 200, rng)
        a = gibbs_binary_probit(data, S=300, burn=50, rng=20)
        b = gibbs_binary_probit(data, S=300, burn=50, rng=20)
        np.testing.assert_array_equal(a.beta, b.beta)
        assert a.seed == 20

    def test_rejects_ordinal_data(self):
        rng = np.random.default_rng(903)
        spec = ModelSpec("ordinal", Link.PROBIT, J=3, k=1, intercept=True)
        data = simulate_dataset(spec, [0.0], [1.0], 100, rng)
        with pytest.raises(ValueError):
            gibbs_binary_probit(data)

    def test_draw_and_burn_validation(self):
        with pytest.raises(ValueError):
            gibbs_binary_probit(_empty_binary(), S=100, burn=100, rng=1)
        with pytest.raises(ValueError):
            gibbs_binary_probit(_empty_binary(), S=100, burn=-1, rng=1)

    def test_empty_cutpoint_block_makes_no_likelihood_pass(self, monkeypatch):
        # J = 2 leaves no cut-point to move, so the sweep never needs loglik
        def no_loglik(*args, **kwargs):
            raise AssertionError("binary chain evaluated the likelihood")

        rng = np.random.default_rng(911)
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=2, intercept=True)
        data = simulate_dataset(spec, [0.2, 0.5], [], 300, rng)
        monkeypatch.setattr(bayes.lk, "loglik", no_loglik)
        chain = gibbs_binary_probit(data, S=60, burn=10, rng=27)
        assert chain.accept_rate is None
        assert chain.delta.shape == (60, 0)


class TestOrdinalSampler:
    def _instance(self, n=2000, seed=904):
        rng = np.random.default_rng(seed)
        spec = ModelSpec("ordinal", Link.PROBIT, J=3, k=3, intercept=True)
        data = simulate_dataset(spec, [0.5, -1.0, 0.25], [1.0], n, rng)
        return spec, data

    def test_cutpoint_agrees_with_mle(self):
        spec, data = self._instance()
        fit = fit_ml(spec, data)
        chain = gibbs_ordinal_probit(data, S=2500, burn=500, mh_step=0.1, rng=22)
        gamma2_draws = np.exp(chain.delta[500:, 0])
        post_mean, post_sd = gamma2_draws.mean(), gamma2_draws.std(ddof=1)
        assert abs(post_mean - fit.cutpoints[2]) <= 3.0 * post_sd
        for row, mle in zip(posterior_summary(chain)[:3], fit.params.beta):
            assert abs(row["mean"] - mle) <= 3.0 * row["sd"]

    def test_acceptance_rate_in_working_band(self):
        _, data = self._instance()
        chain = gibbs_ordinal_probit(data, S=1500, burn=300, mh_step=0.1, rng=23)
        assert 0.1 <= chain.accept_rate <= 0.7

    def test_cutpoint_order_preserved_every_draw(self):
        rng = np.random.default_rng(905)
        spec = ModelSpec("ordinal", Link.PROBIT, J=4, k=2, intercept=True)
        data = simulate_dataset(spec, [0.3, -0.5], [0.8, 1.7], 500, rng)
        chain = gibbs_ordinal_probit(data, S=400, burn=0, mh_step=0.15, rng=24)
        spacings = np.exp(chain.delta)
        assert np.all(spacings > 0.0)

    def test_binary_input_routed_to_binary_sampler(self):
        rng = np.random.default_rng(906)
        spec = ModelSpec("binary", Link.PROBIT, J=2, k=1, intercept=True)
        data = simulate_dataset(spec, [0.0], [], 100, rng)
        with pytest.raises(ValueError, match="gibbs_binary_probit"):
            gibbs_ordinal_probit(data)

    def test_no_data_recovers_prior(self):
        empty = Dataset(y=np.zeros(0, dtype=int), X=np.zeros((0, 2)),
                        column_names=["b0", "b1"], J=3)
        # mh_step 12 is about 2.4 prior sds: acceptance near 0.45
        chain = gibbs_ordinal_probit(empty, S=10_000, burn=0, mh_step=12.0, rng=28)
        beta, delta = chain.beta, chain.delta[:, 0]
        # beta draws are iid N(0, 100): MC error 0.1 for the mean, 1.4 for the variance
        np.testing.assert_allclose(beta.mean(axis=0), 0.0, atol=0.4)
        np.testing.assert_allclose(beta.var(axis=0, ddof=1), 100.0, atol=6.0)
        # delta follows a random walk on N(0, 25); over 40 seeds the spread
        # was 0.10 for the mean and 0.71 for the variance
        assert np.all(np.isfinite(delta))
        assert abs(delta.mean()) < 0.5
        assert abs(delta.var(ddof=1) - 25.0) < 4.0

    def test_unobserved_middle_category_starts_from_zero(self):
        # share quantiles would give the empty category a zero spacing
        _, data = self._instance(n=300, seed=908)
        data = Dataset(y=np.where(data.y == 2, 3, data.y), X=data.X,
                       column_names=data.column_names, J=3)
        chain = gibbs_ordinal_probit(data, S=50, burn=0, mh_step=0.1, rng=29)
        want = gibbs_probit_reference(data, S=50, burn=0, mh_step=0.1, rng=29)
        _assert_same_chain(chain, want)
        assert np.all(np.isfinite(chain.delta))

    def test_mh_step_validated(self):
        _, data = self._instance(n=200)
        with pytest.raises(ValueError):
            gibbs_ordinal_probit(data, mh_step=0.0)

    def test_same_seed_identical(self):
        _, data = self._instance(n=200, seed=907)
        a = gibbs_ordinal_probit(data, S=200, burn=0, mh_step=0.1, rng=25)
        b = gibbs_ordinal_probit(data, S=200, burn=0, mh_step=0.1, rng=25)
        np.testing.assert_array_equal(a.beta, b.beta)
        np.testing.assert_array_equal(a.delta, b.delta)
        assert a.accept_rate == b.accept_rate


class TestPosteriorSummary:
    def test_constant_chain(self):
        chain = ChainDraws(
            beta=np.full((300, 1), 3.25), delta=np.zeros((300, 0)),
            param_names=["c"], burn=100,
        )
        row = posterior_summary(chain)[0]
        assert row["mean"] == 3.25
        assert row["sd"] == 0.0
        assert row["q2.5"] == row["q50"] == row["q97.5"] == 3.25

    def test_iid_standard_normal_chain(self):
        rng = np.random.default_rng(908)
        chain = ChainDraws(
            beta=rng.standard_normal((100_000, 1)), delta=np.zeros((100_000, 0)),
            param_names=["z"], burn=0,
        )
        row = posterior_summary(chain)[0]
        assert row["mean"] == pytest.approx(0.0, abs=0.01)
        assert row["sd"] == pytest.approx(1.0, abs=0.01)
        assert row["q2.5"] == pytest.approx(-1.96, abs=0.03)
        assert row["q97.5"] == pytest.approx(1.96, abs=0.03)

    def test_quantiles_ordered(self):
        rng = np.random.default_rng(909)
        chain = ChainDraws(
            beta=rng.exponential(size=(500, 2)), delta=np.zeros((500, 0)),
            param_names=["a", "b"], burn=100,
        )
        for row in posterior_summary(chain):
            assert row["q2.5"] <= row["q50"] <= row["q97.5"]

    def test_too_few_draws_rejected(self):
        chain = ChainDraws(
            beta=np.zeros((150, 1)), delta=np.zeros((150, 0)),
            param_names=["c"], burn=100,
        )
        with pytest.raises(ValueError):
            posterior_summary(chain)


class TestChainSerialization:
    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(910)
        spec = ModelSpec("ordinal", Link.PROBIT, J=3, k=2, intercept=True)
        data = simulate_dataset(spec, [0.4, -0.3], [1.1], 150, rng)
        chain = gibbs_ordinal_probit(data, S=120, burn=20, mh_step=0.1, rng=26)
        path = tmp_path / "chain.csv"
        chain.save_csv(path)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = np.array([[float(v) for v in row] for row in reader])
        assert header == chain.param_names
        np.testing.assert_array_equal(rows, chain.draws(include_burn=True))


def _probit_instance(J, n, seed):
    rng = np.random.default_rng(seed)
    spec = ModelSpec("ordinal" if J > 2 else "binary", Link.PROBIT, J=J, k=3, intercept=True)
    cuts = list(np.linspace(0.6, 1.2, J - 2))
    return simulate_dataset(spec, [0.3, -0.8, 0.4], list(np.cumsum(cuts)), n, rng)


def _sample(data, **kwargs):
    if data.J == 2:
        return gibbs_binary_probit(data, **kwargs)
    return gibbs_ordinal_probit(data, mh_step=0.15, **kwargs)


def _assert_same_chain(got, want):
    assert np.array_equal(got.beta, want.beta)
    assert np.array_equal(got.delta, want.delta)
    assert got.accept_rate == want.accept_rate


class TestSweepMatchesReference:
    """The sweep reproduces the earlier loop (full likelihood passes, scipy
    solve wrappers, masked truncated-normal draws) bit for bit."""

    @pytest.mark.parametrize("J", [2, 3, 4, 5])
    def test_same_draws(self, J):
        data = _probit_instance(J, 400, seed=940 + J)
        got = _sample(data, S=150, burn=10, rng=41)
        want = gibbs_probit_reference(data, S=150, burn=10, rng=41,
                                      mh_step=0.15 if J > 2 else 0.0)
        _assert_same_chain(got, want)

    @pytest.mark.parametrize("J", [2, 3])
    def test_same_draws_without_data(self, J):
        empty = Dataset(y=np.zeros(0, dtype=int), X=np.zeros((0, 2)),
                        column_names=["b0", "b1"], J=J)
        got = _sample(empty, S=120, burn=0, rng=42)
        want = gibbs_probit_reference(empty, S=120, burn=0, rng=42,
                                      mh_step=0.15 if J > 2 else 0.0)
        _assert_same_chain(got, want)

    @pytest.mark.parametrize("J", [2, 4])
    def test_same_draws_under_informative_prior(self, J):
        data = _probit_instance(J, 300, seed=950 + J)
        prior = PriorSpec(b0=np.array([0.5, -0.5, 0.0]), B0=np.diag([0.5, 2.0, 1.0]),
                          delta_var=2.0)
        got = _sample(data, prior=prior, S=150, burn=10, rng=43)
        want = gibbs_probit_reference(data, prior=prior, S=150, burn=10, rng=43,
                                      mh_step=0.15 if J > 2 else 0.0)
        _assert_same_chain(got, want)

    @pytest.mark.parametrize("J", [2, 3])
    def test_same_draws_with_latent_tails(self, J, monkeypatch):
        # a tight prior holds beta near b0, where a few rows observed far on
        # the wrong side of x'beta keep their latent intervals beyond +-6
        data = _probit_instance(J, 300, seed=945 + J)
        b0 = np.array([0.3, -0.8, 0.4])
        data.X[np.flatnonzero(data.y == 1)[:3], 1] = -15.0   # x'beta near 12: b below -6
        data.X[np.flatnonzero(data.y == J)[:3], 1] = 15.0    # x'beta near -12: a above 6
        prior = PriorSpec(b0=b0, B0=1e-6 * np.eye(3))
        tail_calls = [0]
        original = distributions._upper_tail_draw

        def counting(*args):
            tail_calls[0] += 1
            return original(*args)

        monkeypatch.setattr(distributions, "_upper_tail_draw", counting)
        got = _sample(data, prior=prior, S=80, burn=0, rng=44)
        # both tails in every sweep after the first, which starts from the
        # share-quantile intercept with the slopes at 0
        assert tail_calls[0] == 2 * (80 - 1)
        want = gibbs_probit_reference(data, prior=prior, S=80, burn=0, rng=44,
                                      mh_step=0.15 if J > 2 else 0.0)
        _assert_same_chain(got, want)

    @pytest.mark.parametrize("J", [3, 4])
    def test_same_draws_with_clamped_rows(self, J, monkeypatch):
        # rows near |x'beta| = 48: log-probabilities near -1160, below the
        # -745 clamp, and latent intervals past where log Phi underflows
        data = _probit_instance(J, 300, seed=955 + J)
        b0 = np.array([0.3, -0.8, 0.4])
        data.X[np.flatnonzero(data.y == 1)[:3], 1] = -60.0
        data.X[np.flatnonzero(data.y == J)[:3], 1] = 60.0
        prior = PriorSpec(b0=b0, B0=1e-6 * np.eye(3))
        clamped, tail_bounds = [0], []
        original_logprob = lk._interval_logprob
        original_tail = distributions._upper_tail_draw

        def counting_logprob(link, a, b):
            out = original_logprob(link, a, b)
            clamped[0] += out[1]
            return out

        def checked_tail(a, b, u):
            draws = original_tail(a, b, u)
            assert np.all(np.isfinite(draws)) and np.all((draws > a) & (draws <= b))
            tail_bounds.append(a.max())
            return draws

        monkeypatch.setattr(lk, "_interval_logprob", counting_logprob)
        monkeypatch.setattr(distributions, "_upper_tail_draw", checked_tail)
        got = gibbs_ordinal_probit(data, prior=prior, S=60, burn=0, mh_step=0.15, rng=45)
        # the three moved rows with y = J clamp at the current delta and at
        # the proposal, in every sweep after the first
        assert clamped[0] == 2 * 3 * (60 - 1)
        assert max(tail_bounds) > 45.0
        monkeypatch.undo()
        want = gibbs_probit_reference(data, prior=prior, S=60, burn=0, mh_step=0.15, rng=45)
        _assert_same_chain(got, want)


@pytest.fixture
def log_cdf_elements(monkeypatch):
    """Counts the elements that ``Link.log_cdf`` evaluates."""
    counter = {"elements": 0}
    original = Link.log_cdf

    def counting(self, w):
        counter["elements"] += int(np.size(w))
        return original(self, w)

    monkeypatch.setattr(Link, "log_cdf", counting)
    return counter


class TestSweepWorkCounts:
    @pytest.mark.parametrize("J", [3, 5])
    def test_ordinal_sweep_evaluates_only_what_moves(self, J, log_cdf_elements):
        data = _probit_instance(J, 500, seed=960 + J)
        n = data.n
        n_moved = int(np.sum(data.y >= 2))
        n_interior = int(np.sum((data.y > 1) & (data.y < J)))
        counts = []
        for S in (2, 5):
            log_cdf_elements["elements"] = 0
            gibbs_ordinal_probit(data, S=S, burn=1, mh_step=0.1, rng=44)
            counts.append(log_cdf_elements["elements"])
        # each sweep makes one pass over the moved rows (y >= 2) at the current
        # delta and at the proposal; a row with y = 1 cancels out of the
        # ratio, and no pass runs before the first sweep
        per_sweep = 2 * (n_moved + n_interior)
        assert counts[0] == 2 * per_sweep
        assert counts[1] - counts[0] == 3 * per_sweep
        assert per_sweep < 4 * n
        assert per_sweep < n + n_moved + 2 * n_interior  # the full pass it replaced

    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT])
    def test_binary_pass_takes_one_log_cdf_per_row(self, link, log_cdf_elements):
        rng = np.random.default_rng(970)
        spec = ModelSpec("binary", link, J=2, k=2, intercept=True)
        data = simulate_dataset(spec, [0.2, -0.6], [], 700, rng)
        lk._loglik_pass(spec, lk.ParamVector([0.1, -0.4]), data)
        assert log_cdf_elements["elements"] == data.n

    @pytest.mark.parametrize("J", [2, 3, 5])
    def test_latent_draw_takes_the_cdf_at_finite_bounds_only(self, J, monkeypatch):
        # Phi is exactly 0 at a lower bound of -inf and 1 at an upper bound of
        # +inf: per sweep one cdf per finite lower (y >= 2) and finite upper
        # (y < J) bound, n + n_interior in all
        data = _probit_instance(J, 400, seed=972 + J)
        elements = [0]
        original = special.ndtr

        def counting(w, *args, **kwargs):
            elements[0] += int(np.size(w))
            return original(w, *args, **kwargs)

        monkeypatch.setattr(special, "ndtr", counting)
        _sample(data, S=7, burn=1, rng=46)
        n_interior = int(np.sum((data.y > 1) & (data.y < J)))
        assert elements[0] == 7 * (int(np.sum(data.y >= 2)) + int(np.sum(data.y < J)))
        assert elements[0] == 7 * (data.n + n_interior)

    def test_binary_chain_makes_no_interval_pass(self, monkeypatch):
        def no_pass(*args, **kwargs):
            raise AssertionError("binary chain evaluated interval log-probabilities")

        data = _probit_instance(2, 300, seed=971)
        monkeypatch.setattr(lk, "_interval_logprob", no_pass)
        chain = gibbs_binary_probit(data, S=60, burn=10, rng=45)
        assert chain.accept_rate is None


class _AcceptEveryProposal:
    """A seeded Generator whose scalar ``uniform()``, the MH acceptance
    draw, is -1, so the sweep accepts every cut-point proposal."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def uniform(self):
        return -1.0


class TestEmptyIntervalRefused:
    """The latent bounds are checked where they change: at the chain's start
    and at each accepted proposal. A cut-point spacing that underflows to 0,
    or a cut-point that overflows to +inf, empties a category's interval."""

    def test_at_the_start(self, monkeypatch):
        data = _probit_instance(3, 200, seed=984)
        monkeypatch.setattr(bayes.lk, "initial_params",
                            lambda spec, counts: lk.ParamVector(np.zeros(3), [-800.0]))
        with pytest.raises(ValueError, match="require lower < upper"):
            gibbs_ordinal_probit(data, S=20, burn=0, rng=50)

    def test_at_an_accepted_proposal(self):
        data = _probit_instance(3, 200, seed=985)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="require lower < upper"):
            gibbs_ordinal_probit(data, S=20, burn=0, mh_step=1e4, rng=_AcceptEveryProposal(51))


class TestOverflowingProposalRejected:
    """A cut-point proposal whose spacing, cut-point or prior term overflows
    has posterior density 0: it is rejected with no warning, and its
    acceptance uniform is still drawn, so the random stream stays put."""

    @pytest.mark.parametrize("mh_step", [1e3, 1e200])
    def test_matches_the_reference(self, mh_step):
        data = _probit_instance(3, 200, seed=986)
        got = gibbs_ordinal_probit(data, S=40, burn=0, mh_step=mh_step, rng=52)
        with np.errstate(over="ignore"):
            want = gibbs_probit_reference(data, S=40, burn=0, mh_step=mh_step, rng=52)
        _assert_same_chain(got, want)
        assert got.accept_rate == 0.0

    def test_step_that_overflows_the_proposal_itself(self):
        # 1e308 times a normal draw beyond 1.8 overflows to +-inf
        data = _probit_instance(4, 200, seed=987)
        got = gibbs_ordinal_probit(data, S=40, burn=0, mh_step=1e308, rng=53)
        want = gibbs_ordinal_probit(data, S=40, burn=0, mh_step=1e200, rng=53)
        _assert_same_chain(got, want)
        assert got.accept_rate == 0.0
        assert np.all(got.delta == got.delta[0])


class TestNonFiniteSettingsRefused:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_delta_var(self, value):
        data = _probit_instance(3, 300, seed=980)
        with pytest.raises(ValueError, match="delta_var"):
            gibbs_ordinal_probit(data, prior=PriorSpec(delta_var=value), S=50, burn=0, rng=46)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("J", [2, 3])
    def test_b0(self, value, J):
        data = _probit_instance(J, 300, seed=981)
        prior = PriorSpec(b0=np.array([0.0, value, 0.0]))
        with pytest.raises(ValueError, match="b0"):
            _sample(data, prior=prior, S=50, burn=0, rng=47)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_B0(self, value):
        B0 = np.eye(3)
        B0[1, 1] = value
        with pytest.raises(ValueError, match="B0"):
            PriorSpec(B0=B0).resolved(3)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_mh_step(self, value):
        data = _probit_instance(3, 300, seed=982)
        with pytest.raises(ValueError, match="mh_step"):
            gibbs_ordinal_probit(data, S=50, burn=0, mh_step=value, rng=48)

    @pytest.mark.parametrize("J", [2, 3])
    def test_column_too_large_to_fit_named(self, J):
        data = _probit_instance(J, 300, seed=983)
        data.X[3, 1], data.X[7, 1] = 1e308, -1e308
        with pytest.raises(ValueError, match="^column 'x1': values too large to fit, "
                                             "their sum of squares overflows$"):
            _sample(data, S=50, burn=0, rng=49)
