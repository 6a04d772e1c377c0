"""CP-factor completion solver: subproblem oracles and end-to-end recovery."""

import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from conftest import project, reference_svd_svt

from meterfill import cpd_lrtc
from meterfill.cpd_lrtc import (
    FactorSet,
    NumericalError,
    SolverConfig,
    complete,
    completion_blocks,
    init_factors,
    svt,
    update_auxiliary,
    update_completion,
    update_factors,
    update_multipliers,
)
from meterfill.data import SynthSpec, derive_seed, simulate_missing, synth_load_tensor
from meterfill.benchmark import rse
from meterfill.tensor_ops import cp_reconstruct, fro_norm, khatri_rao, unfold


def random_state(dims, rank, seed, with_duals=True):
    rng = np.random.default_rng(seed)
    state = init_factors(dims, rank, rng)
    if with_duals:
        state = FactorSet(
            U=state.U,
            M=tuple(rng.standard_normal(m.shape) for m in state.M),
            Y=tuple(rng.standard_normal(y.shape) for y in state.Y),
        )
    return state


def nuclear_norm(m):
    return np.linalg.svd(m, compute_uv=False).sum()


def operand_with_spectrum(shape, singular_values, seed):
    """A matrix with the given singular values and random singular vectors."""
    rng = np.random.default_rng(seed)
    k = len(singular_values)
    u, _ = np.linalg.qr(rng.standard_normal((shape[0], k)))
    v, _ = np.linalg.qr(rng.standard_normal((shape[1], k)))
    return (u * singular_values) @ v.T


def count_svd_calls(monkeypatch):
    """A list that grows by one with every later ``np.linalg.svd`` call."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(None)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


class TestSvt:
    def test_diagonal(self):
        out = svt(np.diag([5.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([3.0, 0.0]), atol=1e-12)

    def test_all_below_threshold_gives_zero(self, rng):
        # The zeros are a zero matrix times an operand with negative entries:
        # none may be -0.0, which equality misses and digests of bytes do not.
        for shape in [(4, 3), (3, 4)]:
            m = 0.1 * rng.standard_normal(shape)
            assert (m < 0).any()
            for result in (svt(m, 100.0), svt(m, 100.0, out=np.full(shape, np.nan))):
                assert np.array_equal(result, np.zeros(shape))
                assert not np.signbit(result).any()

    def test_matches_direct_svd_shrink(self, rng):
        m = rng.standard_normal((6, 4))
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        oracle = u @ np.diag(np.maximum(s - 0.5, 0.0)) @ vt
        assert np.linalg.norm(svt(m, 0.5) - oracle) <= 1e-10

    def test_negative_threshold(self):
        with pytest.raises(ValueError):
            svt(np.eye(2), -1.0)

    @pytest.mark.parametrize("shape", [(20, 60), (60, 20), (30, 300)])
    def test_spectrum_matches_svd_oracle(self, monkeypatch, shape):
        # Singular values log-spaced over 1e-6..1e3, thresholds at zero,
        # between every neighbouring pair and above the largest: low
        # thresholds keep values below 1e-6 of the largest and take the SVD,
        # the others the Gram path.
        m = operand_with_spectrum(shape, np.logspace(-6, 3, min(shape)), seed=min(shape))
        s = np.linalg.svd(m, compute_uv=False)[::-1]
        taus = [0.0, *np.sqrt(s[:-1] * s[1:]), 2 * s[-1]]
        oracles = [reference_svd_svt(m, tau) for tau in taus]
        calls = count_svd_calls(monkeypatch)
        for tau, oracle in zip(taus[:-1], oracles):
            out = svt(m, tau)
            assert np.linalg.norm(out - oracle) <= 1e-10 * np.linalg.norm(oracle)
        assert np.array_equal(svt(m, taus[-1]), np.zeros(shape))
        assert 0 < len(calls) < len(taus) // 2

    @pytest.mark.parametrize("shape", [(31, 200), (200, 31)])
    def test_well_conditioned_operand_skips_the_svd(self, monkeypatch, rng, shape):
        m = rng.standard_normal(shape)
        oracle = reference_svd_svt(m, 1.0)
        calls = count_svd_calls(monkeypatch)
        out = svt(m, 1.0)
        assert calls == []
        assert np.linalg.norm(out - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_small_kept_singular_values_take_the_svd(self, monkeypatch):
        # Kept values spanning 1e-9..1: squared into the Gram, the smallest
        # come out with errors near 1e-16 / 1e-9 of the largest, far past 1e-10.
        m = operand_with_spectrum((12, 40), np.logspace(-9, 0, 12), seed=3)
        tau = 0.5e-9
        oracle = reference_svd_svt(m, tau)
        calls = count_svd_calls(monkeypatch)
        out = svt(m, tau)
        assert len(calls) == 1
        assert np.linalg.norm(out - oracle) <= 1e-10 * np.linalg.norm(oracle)

    @pytest.mark.parametrize(
        "shape,spectrum,tau,svd_calls",
        [
            ((20, 60), np.logspace(0, 2, 20), 10.0, 0),
            ((60, 20), np.logspace(0, 2, 20), 10.0, 0),
            # Kept values down to 1e-9 of the largest take the SVD fallback.
            ((12, 40), np.logspace(-9, 0, 12), 0.5e-9, 3),
        ],
        ids=["wide", "tall", "svd-fallback"],
    )
    def test_commutes_with_column_permutation_and_transpose(
        self, monkeypatch, shape, spectrum, tau, svd_calls
    ):
        # HaLRTC thresholds C-order matricizations, whose columns are the
        # unfoldings' permuted (and, for mode 3, transposed), on this invariance.
        m = operand_with_spectrum(shape, spectrum, seed=shape[0])
        p = np.random.default_rng(shape[1]).permutation(shape[1])
        calls = count_svd_calls(monkeypatch)
        expected = svt(m, tau)
        bound = 1e-12 * np.linalg.norm(expected)
        assert np.linalg.norm(svt(m[:, p], tau) - expected[:, p]) <= bound
        assert np.linalg.norm(svt(m.T, tau) - expected.T) <= bound
        assert len(calls) == svd_calls

    @pytest.mark.parametrize(
        "shape,spectrum,tau,svd_calls",
        [
            ((20, 60), np.logspace(0, 2, 20), 10.0, 0),
            ((60, 20), np.logspace(0, 2, 20), 10.0, 0),
            ((20, 60), np.logspace(0, 2, 20), 200.0, 0),
            ((12, 40), np.logspace(-9, 0, 12), 0.5e-9, 1),
        ],
        ids=["gram-wide", "gram-tall", "all-zero", "svd-fallback"],
    )
    def test_out_receives_the_result(self, monkeypatch, shape, spectrum, tau, svd_calls):
        m = operand_with_spectrum(shape, spectrum, seed=shape[0])
        expected = svt(m, tau)
        out = np.full(shape, np.nan)
        calls = count_svd_calls(monkeypatch)
        assert svt(m, tau, out=out) is out
        assert np.array_equal(out, expected)
        # In place, the product goes back one slice at a time; 60 is no
        # multiple of the slice width, so the last slice is narrower.
        in_place = m.copy()
        assert svt(in_place, tau, out=in_place) is in_place
        assert np.linalg.norm(in_place - expected) <= 1e-14 * np.linalg.norm(expected)
        assert len(calls) == 2 * svd_calls

    def test_out_of_another_shape_refused(self):
        with pytest.raises(ValueError, match="shape"):
            svt(np.eye(3), 0.5, out=np.empty((3, 2)))

    @pytest.mark.parametrize(
        "view", [lambda m: m[::-1], lambda m: m.T, lambda m: m[:]], ids=["reversed", "transposed", "same-view"]
    )
    def test_out_overlapping_the_operand_refused(self, rng, view):
        # Only m itself is thresholded in place; numpy would quietly buffer
        # any other overlapping out.
        m = rng.standard_normal((6, 6))
        before = m.copy()
        with pytest.raises(ValueError, match="overlaps"):
            svt(m, 0.5, out=view(m))
        assert np.array_equal(m, before)

    @pytest.mark.parametrize("shape", [(30, 2400), (1440, 50)])
    def test_in_place_buffers_a_slice_only(self, rng, shape):
        # numpy would buffer the whole operand that out overlaps; svt writes
        # the product back through a buffer of an eighth of it, beside
        # small-side matrices.
        m = rng.standard_normal(shape)
        tau = 0.5 * np.linalg.norm(m, 2)
        tracemalloc.start()
        try:
            svt(m, tau, out=m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * m.nbytes

    @pytest.mark.parametrize("shape", [(6, 9), (9, 6)])
    @pytest.mark.parametrize("c", [1e-170, 1e-150, 1e-6, 1e6, 1e150, 1e200])
    def test_scale_equivariance(self, rng, shape, c):
        # The Gram of entries near 1e200 overflows and near 1e-170 underflows
        # to zero; near 1e-150 its eigenvalues are too small for the ratio
        # test. These three take the SVD, with no overflow warning (tier-1
        # turns RuntimeWarning into an error) and no all-zero result.
        m = rng.standard_normal(shape)
        expected = svt(m, 0.5)
        out = svt(c * m, c * 0.5)
        assert np.all(np.isfinite(out))
        assert np.linalg.norm(out / c - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_operand(self, shape):
        assert np.array_equal(svt(np.zeros(shape), 1.0), np.zeros(shape))

    @pytest.mark.parametrize("shape", [(4, 6), (6, 4)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_operand_raises(self, shape, bad):
        m = np.ones(shape)
        m[1, 2] = bad
        with pytest.raises(NumericalError):
            svt(m, 0.5)


class TestConfigValidation:
    def test_alpha_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=(0.5, 0.5, 0.5))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"epsilon": 1.0},
            {"rank": 0},
            {"lam": 0.0},
            {"mu0": -1.0},
            {"rho": 0.9},
            {"max_iters": 0},
            {"mu0": None},
            {"rho": math.nan},
            {"mu0": math.nan},
            {"mu_max": math.nan},
            {"lam": math.nan},
            {"alpha": (math.nan, 0.5, 0.5)},
            {"mu0": math.inf},
            {"rho": math.inf},
            {"lam": math.inf},
            {"mu_max": math.inf},
            {"max_iters": 2.5},
            {"max_iters": True},
            {"rank": 2.5},
            {"rank": True},
            {"seed": 1.5},
            {"seed": False},
        ],
    )
    def test_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = SolverConfig(rank=np.int64(3), max_iters=np.int32(7), seed=np.uint8(1))
        assert (cfg.rank, cfg.max_iters, cfg.seed) == (3, 7, 1)

    def test_factor_set_rank_mismatch(self):
        with pytest.raises(ValueError):
            FactorSet(
                U=(np.ones((2, 2)), np.ones((3, 3)), np.ones((4, 2))),
                M=(np.ones((2, 2)), np.ones((3, 2)), np.ones((4, 2))),
                Y=(np.ones((2, 2)), np.ones((3, 2)), np.ones((4, 2))),
            )


class TestFactorUpdate:
    def test_large_penalty_limit(self, rng):
        # mu >> lam * ||B B^T|| makes the penalty term dominate the solve
        state = random_state((4, 3, 2), 1, seed=1)
        x = rng.standard_normal((4, 3, 2))
        mu = 1e8
        new = update_factors(state, x, lam=1.0, mu=mu)
        for n in range(3):
            expected = state.M[n] + state.Y[n] / mu
            assert np.allclose(new.U[n], expected, atol=1e-6)

    def test_normal_equation_residual(self, rng):
        state = random_state((6, 5, 4), 3, seed=2)
        x = rng.standard_normal((6, 5, 4))
        lam, mu = 1.0, 0.37
        new = update_factors(state, x, lam, mu)
        u_mixed = list(state.U)
        for n in range(3):
            others = [new.U[k] if k < n else u_mixed[k] for k in (2, 1, 0) if k != n]
            kr = khatri_rao(others[0], others[1])
            rhs = lam * (unfold(x, n + 1) @ kr) + mu * state.M[n] + state.Y[n]
            gram = lam * (kr.T @ kr) + mu * np.eye(kr.shape[1])
            resid = np.linalg.norm(rhs - new.U[n] @ gram)
            assert resid <= 1e-8 * np.linalg.norm(rhs)

    def test_given_contraction_matches_formed_one(self, rng):
        # complete hands each sweep the contraction update_completion wrote;
        # given the same values, the sweep is the one that forms it from x.
        state = random_state((6, 5, 4), 3, seed=2)
        x = rng.standard_normal((6, 5, 4))
        z = x.reshape(30, 4) @ state.U[2]
        given = update_factors(state, x, 1.0, 0.37, z)
        formed = update_factors(state, x, 1.0, 0.37)
        for n in range(3):
            assert np.array_equal(given.U[n], formed.U[n])

    def test_mode3_mttkrp_matches_unfolding(self, rng):
        # The mode-3 right-hand side (khatri_rao(U1, U2).T @ X_(12)).T is the
        # unfolding MTTKRP unfold(x, 3) @ khatri_rao(U2, U1) in another order.
        state = random_state((7, 6, 5), 3, seed=13)
        x = rng.standard_normal((7, 6, 5))
        lam, mu = 1.0, 0.37
        new = update_factors(state, x, lam, mu)
        kr = khatri_rao(new.U[1], new.U[0])
        rhs = lam * (unfold(x, 3) @ kr) + mu * state.M[2] + state.Y[2]
        gram = lam * (kr.T @ kr) + mu * np.eye(3)
        assert np.linalg.norm(rhs - new.U[2] @ gram) <= 1e-12 * np.linalg.norm(rhs)

    def test_gradient_vanishes_at_solution(self, rng):
        # First validate the analytic gradient of the quadratic objective by
        # central finite differences at a generic point, then assert it
        # vanishes at the returned update.
        dims, rank = (6, 5, 4), 3
        lam, mu = 1.0, 0.37

        def gradient(u_n, n, others_kr, xn, m_n, y_n):
            return lam * (u_n @ others_kr.T - xn) @ others_kr + mu * (u_n - m_n - y_n / mu)

        def objective(u_n, n, factors, x, m_n, y_n):
            fs = list(factors)
            fs[n] = u_n
            recon = cp_reconstruct(fs)
            return (
                0.5 * lam * fro_norm(x - recon) ** 2
                + 0.5 * mu * fro_norm(u_n - m_n - y_n / mu) ** 2
            )

        x = rng.standard_normal(dims)
        factors = [rng.standard_normal((d, rank)) for d in dims]
        n = 1
        m_n = rng.standard_normal((dims[n], rank))
        y_n = rng.standard_normal((dims[n], rank))
        others = [factors[k] for k in (2, 1, 0) if k != n]
        kr = khatri_rao(others[0], others[1])
        analytic = gradient(factors[n], n, kr, unfold(x, n + 1), m_n, y_n)
        h = 1e-6
        for i, r in [(0, 0), (2, 1), (4, 2), (1, 1)]:
            up, dn = factors[n].copy(), factors[n].copy()
            up[i, r] += h
            dn[i, r] -= h
            fd = (
                objective(up, n, factors, x, m_n, y_n)
                - objective(dn, n, factors, x, m_n, y_n)
            ) / (2 * h)
            assert fd == pytest.approx(analytic[i, r], rel=1e-4, abs=1e-6)

        state = random_state(dims, rank, seed=3)
        new = update_factors(state, x, lam, mu)
        for n in range(3):
            others = [new.U[k] if k < n else state.U[k] for k in (2, 1, 0) if k != n]
            kr = khatri_rao(others[0], others[1])
            grad = gradient(new.U[n], n, kr, unfold(x, n + 1), state.M[n], state.Y[n])
            assert np.linalg.norm(grad) < 1e-8 * (1 + np.linalg.norm(new.U[n]))

    def test_fixed_point_on_exact_cp_tensor(self, rng):
        rank = 3
        factors = tuple(rng.standard_normal((d, rank)) for d in (6, 5, 4))
        t = cp_reconstruct(factors)
        state = FactorSet(
            U=factors,
            M=tuple(f.copy() for f in factors),
            Y=tuple(np.zeros_like(f) for f in factors),
        )
        new = update_factors(state, t, lam=1.0, mu=0.5)
        for n in range(3):
            scale = np.linalg.norm(factors[n])
            assert np.linalg.norm(new.U[n] - factors[n]) <= 1e-9 * scale

    @pytest.mark.parametrize("shape", [(3, 4, 2), (4, 2, 3), (2, 3, 4), (4, 3, 3)])
    def test_tensor_shape_must_match_factor_dims(self, shape):
        # the first three hold as many entries as the (4, 3, 2) factors and
        # reshape to the same matrices, so only the shape check can catch them
        state = random_state((4, 3, 2), 2, seed=12)
        with pytest.raises(ValueError, match="does not match factor dims"):
            update_factors(state, np.ones(shape), lam=1.0, mu=0.5)

    def test_non_finite_operands_raise(self):
        state = random_state((4, 3, 2), 2, seed=12)
        x = np.ones((4, 3, 2))
        x[1, 1, 1] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(
            NumericalError, match="mode-1 factor update produced non-finite values"
        ):
            update_factors(state, x, lam=1.0, mu=0.5)

    def test_failed_solve_raises_numerical_error(self, monkeypatch, rng):
        def failing(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", failing)
        state = random_state((4, 3, 2), 2, seed=12)
        with pytest.raises(
            NumericalError, match=r"^mode-1 factor solve failed: Singular matrix$"
        ):
            update_factors(state, np.ones((4, 3, 2)), lam=1.0, mu=0.5)
        t = rng.standard_normal((8, 7, 6))
        with pytest.raises(
            NumericalError, match=r"^iteration 1: mode-1 factor solve failed: Singular matrix$"
        ):
            complete(t, rng.random(t.shape) < 0.5, SolverConfig(rank=2))


class TestAuxiliaryUpdate:
    def test_zero_weight_is_identity_shift(self):
        state = random_state((4, 3, 2), 2, seed=4)
        mu = 0.7
        new = update_auxiliary(state, (0.0, 0.0, 1.0), mu)
        for n in range(2):
            expected = state.U[n] - state.Y[n] / mu
            assert np.allclose(new.M[n], expected, atol=1e-12)

    def test_small_singular_values_vanish(self, rng):
        u = tuple(1e-3 * rng.standard_normal((d, 2)) for d in (4, 3, 2))
        state = FactorSet(U=u, M=u, Y=tuple(np.zeros_like(f) for f in u))
        new = update_auxiliary(state, (1 / 3, 1 / 3, 1 / 3), mu=1e-4)
        for n in range(3):
            assert np.array_equal(new.M[n], np.zeros_like(u[n]))

    def test_matches_svt_composition(self):
        state = random_state((6, 5, 4), 3, seed=5)
        mu = 0.8
        alpha = (0.2, 0.5, 0.3)
        new = update_auxiliary(state, alpha, mu)
        for n in range(3):
            direct = svt(state.U[n] - state.Y[n] / mu, alpha[n] / mu)
            assert np.allclose(new.M[n], direct, atol=1e-12)

    def test_minimizes_shrinkage_objective(self, rng):
        state = random_state((6, 5, 4), 3, seed=6)
        mu = 0.8
        alpha = (0.2, 0.5, 0.3)
        new = update_auxiliary(state, alpha, mu)
        for n in range(3):
            target = state.U[n] - state.Y[n] / mu
            best = alpha[n] * nuclear_norm(new.M[n]) + 0.5 * mu * np.linalg.norm(
                new.M[n] - target
            ) ** 2
            for _ in range(20):
                pert = new.M[n] + 0.1 * rng.standard_normal(new.M[n].shape)
                val = alpha[n] * nuclear_norm(pert) + 0.5 * mu * np.linalg.norm(
                    pert - target
                ) ** 2
                assert val >= best - 1e-12


def observed_of(t, mask):
    """Flat observed positions and values, as complete computes them once."""
    return np.flatnonzero(mask), t[mask]


def run_completion(state, t, mask, x=None):
    """update_completion from completion x (random by default), as complete calls it.

    Returns the old completion, the new one, the contraction z it wrote and
    the change it reported.
    """
    if x is None:
        x = np.random.default_rng(99).standard_normal(state.dims)
    old = x.copy()
    z = np.full((state.dims[0] * state.dims[1], state.U[0].shape[1]), np.nan)
    blocks = completion_blocks(state.dims, *observed_of(t, mask))
    change = update_completion(state, x, z, blocks)
    return old, x, z, change


def assert_completion_oracles(state, t, mask, old, new, z, change):
    """Observed entries exact, the rest the CP reconstruction within 1e-14,
    z the new completion's mode-3 contraction and change its distance from
    the old one."""
    recon = cp_reconstruct(state.U)
    assert np.array_equal(new[mask], t[mask])
    assert np.max(np.abs(new - np.where(mask, t, recon))) <= 1e-14 * np.max(np.abs(recon))
    expected_z = new.reshape(-1, state.dims[2]) @ state.U[2]
    assert np.linalg.norm(z - expected_z) <= 1e-14 * np.linalg.norm(expected_z)
    assert change == pytest.approx(fro_norm(old - new), rel=1e-14)


class TestCompletionUpdate:
    def test_full_mask_returns_truth(self, rng):
        state = random_state((4, 3, 2), 2, seed=7)
        t = rng.standard_normal((4, 3, 2))
        old, new, z, change = run_completion(state, t, np.ones(t.shape, bool))
        assert np.array_equal(new, t)
        assert change == pytest.approx(fro_norm(old - t), rel=1e-14)

    def test_empty_mask_returns_reconstruction(self):
        state = random_state((4, 3, 2), 2, seed=8)
        t = np.zeros((4, 3, 2))
        mask = np.zeros(t.shape, bool)
        old, new, z, change = run_completion(state, t, mask)
        recon = cp_reconstruct(state.U)
        assert np.max(np.abs(new - recon)) <= 1e-14 * np.max(np.abs(recon))
        assert_completion_oracles(state, t, mask, old, new, z, change)

    def test_entrywise_selector(self, rng):
        state = random_state((4, 3, 2), 2, seed=9)
        t = rng.standard_normal((4, 3, 2))
        mask = rng.random(t.shape) < 0.5
        old, out, z, change = run_completion(state, t, mask)
        recon = cp_reconstruct(state.U)
        for idx in np.ndindex(t.shape):
            if mask[idx]:
                assert out[idx] == t[idx]
            else:
                assert out[idx] == pytest.approx(recon[idx], rel=1e-14, abs=1e-15)
        assert_completion_oracles(state, t, mask, old, out, z, change)

    def test_overwrites_in_place(self, rng):
        state = random_state((4, 3, 2), 2, seed=9)
        t = rng.standard_normal((4, 3, 2))
        x = np.zeros(t.shape)
        run_completion(state, t, np.ones(t.shape, bool), x)
        assert np.array_equal(x, t)

    @pytest.mark.parametrize("positions", [[0, 24], [-1, 3]])
    def test_positions_outside_dims_rejected(self, positions):
        with pytest.raises(ValueError, match="outside factor dims"):
            completion_blocks((4, 3, 2), np.array(positions), np.ones(2))

    def test_positions_and_values_must_pair(self):
        with pytest.raises(ValueError):
            completion_blocks((4, 3, 2), np.array([0, 1]), np.ones(3))

    @pytest.mark.parametrize("positions", [[3, 1], [2, 2]])
    def test_positions_must_increase(self, positions):
        with pytest.raises(ValueError, match="strictly increasing"):
            completion_blocks((4, 3, 2), np.array(positions), np.ones(2))

    @pytest.mark.parametrize("order", ["F", "C-int"])
    def test_completion_must_be_c_ordered_float(self, order):
        state = random_state((4, 3, 2), 2, seed=9)
        t = np.ones((4, 3, 2))
        x = np.asfortranarray(t) if order == "F" else t.astype(np.int64)
        blocks = completion_blocks(t.shape, *observed_of(t, t > 0))
        with pytest.raises(ValueError, match="C-ordered float64"):
            update_completion(state, x, np.zeros((12, 2)), blocks)


def all_blocks(halves):
    """completion_blocks' ``(first, second)`` as one tuple of blocks in row order."""
    first, second = halves
    return (*first, *second)


class TestCompletionBlocks:
    """The blocked pass at block sizes that cut a small tensor many ways."""

    DIMS = (5, 4, 6)  # 20 rows of 6 entries: 48 bytes a row

    def blocks_of(self, monkeypatch, block_bytes, mask):
        monkeypatch.setattr(cpd_lrtc, "_BLOCK_BYTES", block_bytes)
        t = np.random.default_rng(21).standard_normal(self.DIMS)
        return t, completion_blocks(self.DIMS, *observed_of(t, mask))

    def check(self, monkeypatch, block_bytes, mask):
        state = random_state(self.DIMS, 3, seed=22)
        t, _ = self.blocks_of(monkeypatch, block_bytes, mask)
        old, new, z, change = run_completion(state, t, mask)
        assert_completion_oracles(state, t, mask, old, new, z, change)

    @pytest.mark.parametrize("block_bytes", [7 * 48, 7 * 48 + 40])
    def test_ragged_last_block(self, monkeypatch, block_bytes):
        mask = np.random.default_rng(23).random(self.DIMS) < 0.5
        blocks = all_blocks(self.blocks_of(monkeypatch, block_bytes, mask)[1])
        assert [(start, stop) for start, stop, *_ in blocks] == [(0, 7), (7, 14), (14, 20)]
        self.check(monkeypatch, block_bytes, mask)

    def test_block_with_no_observed_entry(self, monkeypatch):
        mask = np.random.default_rng(24).random(self.DIMS) < 0.5
        mask[:2] = False  # rows 0..7, the first two blocks of four rows
        blocks = all_blocks(self.blocks_of(monkeypatch, 4 * 48, mask)[1])
        assert [idx.size for _, _, idx, *_ in blocks[:2]] == [0, 0]
        assert all(idx.size for _, _, idx, *_ in blocks[2:])
        self.check(monkeypatch, 4 * 48, mask)

    def test_fully_observed_block(self, monkeypatch):
        mask = np.random.default_rng(25).random(self.DIMS) < 0.3
        mask[3:] = True  # rows 12..19, the last two blocks of four rows
        blocks = all_blocks(self.blocks_of(monkeypatch, 4 * 48, mask)[1])
        assert [idx.size for _, _, idx, *_ in blocks[3:]] == [24, 24]
        self.check(monkeypatch, 4 * 48, mask)

    @pytest.mark.parametrize("block_bytes", [0, 1, 48])
    def test_one_row_blocks(self, monkeypatch, block_bytes):
        mask = np.random.default_rng(26).random(self.DIMS) < 0.5
        blocks = all_blocks(self.blocks_of(monkeypatch, block_bytes, mask)[1])
        assert [(start, stop) for start, stop, *_ in blocks] == [(r, r + 1) for r in range(20)]
        self.check(monkeypatch, block_bytes, mask)

    def test_blocks_partition_the_observed_entries(self, monkeypatch):
        mask = np.random.default_rng(27).random(self.DIMS) < 0.5
        t, halves = self.blocks_of(monkeypatch, 3 * 48, mask)
        blocks = all_blocks(halves)
        idx, values = observed_of(t, mask)
        assert np.array_equal(np.concatenate([b[2] + b[0] * 6 for b in blocks]), idx)
        assert np.array_equal(np.concatenate([b[3] for b in blocks]), values)
        for start, stop, offsets, _, scratch in blocks:
            assert np.all((0 <= offsets) & (offsets < (stop - start) * 6))
            assert scratch.shape == (stop - start, 6) and np.shares_memory(scratch, blocks[0][4])

    def test_threaded_blocks_give_the_second_half_its_own_scratch(self, monkeypatch):
        mask = np.random.default_rng(27).random(self.DIMS) < 0.5
        monkeypatch.setattr(cpd_lrtc, "_BLOCK_BYTES", 3 * 48)
        t = np.random.default_rng(21).standard_normal(self.DIMS)
        shared = all_blocks(completion_blocks(self.DIMS, *observed_of(t, mask)))
        blocks = all_blocks(completion_blocks(self.DIMS, *observed_of(t, mask), threaded=True))
        assert [b[:2] for b in blocks] == [b[:2] for b in shared]  # 7 blocks, 3 and 4
        scratches = [b[4] for b in blocks]
        assert all(np.shares_memory(s, scratches[0]) for s in scratches[:3])
        assert all(np.shares_memory(s, scratches[3]) for s in scratches[3:])
        assert not np.shares_memory(scratches[0], scratches[3])

    def test_worker_needs_threaded_blocks(self, monkeypatch):
        mask = np.random.default_rng(27).random(self.DIMS) < 0.5
        state = random_state(self.DIMS, 3, seed=22)
        t, blocks = self.blocks_of(monkeypatch, 3 * 48, mask)
        z = np.empty((20, 3))
        with ThreadPoolExecutor(1) as worker:
            with pytest.raises(ValueError, match="threaded=True"):
                update_completion(state, t.copy(), z, blocks, worker)

    def test_whole_solve_does_not_depend_on_block_size(self, monkeypatch):
        # Each row's arithmetic is the same in any block; only the order in
        # which the change's squares are summed moves.
        t = np.random.default_rng(28).standard_normal(self.DIMS)
        mask = np.random.default_rng(29).random(self.DIMS) < 0.6
        cfg = SolverConfig(rank=3, max_iters=20, epsilon=1e-12)
        default = complete(t, mask, cfg)
        monkeypatch.setattr(cpd_lrtc, "_BLOCK_BYTES", 48)
        rows = complete(t, mask, cfg)
        assert rel_diff(rows.completed, default.completed) <= 1e-12
        assert np.allclose(rows.residual_history, default.residual_history, rtol=1e-10)


class TestMultiplierUpdate:
    def test_fixed_point_when_aux_equals_factor(self):
        state = random_state((4, 3, 2), 2, seed=10, with_duals=False)
        new = update_multipliers(state, mu=3.0)
        for n in range(3):
            assert np.array_equal(new.Y[n], state.Y[n])

    def test_unit_gap_example(self):
        u = tuple(np.zeros((d, 1)) for d in (2, 2, 2))
        m = tuple(np.ones((d, 1)) for d in (2, 2, 2))
        state = FactorSet(U=u, M=m, Y=tuple(np.zeros((d, 1)) for d in (2, 2, 2)))
        new = update_multipliers(state, mu=2.0)
        for n in range(3):
            assert np.array_equal(new.Y[n], 2.0 * np.ones((2, 1)))

    def test_formula_oracle(self):
        state = random_state((5, 4, 3), 2, seed=11)
        mu = 0.6
        new = update_multipliers(state, mu)
        for n in range(3):
            assert np.allclose(
                new.Y[n], state.Y[n] + mu * (state.M[n] - state.U[n]), atol=1e-14
            )


class TestComplete:
    def test_fully_observed_exact(self, rng):
        t = rng.standard_normal((5, 6, 4))
        report = complete(t, np.ones(t.shape, bool), SolverConfig(rank=3))
        assert report.converged
        assert report.iterations <= 2
        assert np.array_equal(report.completed, t)

    def test_recovers_rank3_tensor(self):
        sr = synth_load_tensor(SynthSpec(dims=(20, 24, 15), rank=3), seed=43)
        masked = simulate_missing(sr.dataset, 0.3, derive_seed(3, "mask", "0.3"))
        report = complete(masked.tensor, masked.mask, SolverConfig(rank=5))
        assert report.converged
        assert rse(report.completed, sr.dataset.tensor, masked.mask) <= 1.0

    def test_error_grows_with_missing_rate(self):
        sr = synth_load_tensor(SynthSpec(dims=(20, 24, 15), rank=3), seed=43)
        scores = {}
        for rate in (0.3, 0.9):
            masked = simulate_missing(sr.dataset, rate, derive_seed(3, "mask", f"{rate}"))
            report = complete(masked.tensor, masked.mask, SolverConfig(rank=5))
            scores[rate] = rse(report.completed, sr.dataset.tensor, masked.mask)
        assert scores[0.9] > scores[0.3]

    @pytest.mark.parametrize("r,rate", [(1, 0.3), (1, 0.5), (3, 0.3), (3, 0.5), (5, 0.5)])
    def test_exact_recovery_property(self, r, rate):
        sr = synth_load_tensor(SynthSpec(dims=(20, 24, 15), rank=r), seed=40 + r)
        masked = simulate_missing(sr.dataset, rate, derive_seed(r, "mask", f"{rate}"))
        report = complete(masked.tensor, masked.mask, SolverConfig(rank=max(r, 5)))
        assert rse(report.completed, sr.dataset.tensor, masked.mask) <= 5.0

    def test_observed_entries_bitwise_exact(self, rng):
        t = rng.standard_normal((8, 7, 6))
        mask = rng.random(t.shape) < 0.6
        report = complete(t, mask, SolverConfig(rank=2, max_iters=7, epsilon=1e-9))
        assert np.array_equal(project(report.completed, mask), project(t, mask))

    @pytest.mark.parametrize("observed", [0.6, 1.0])
    def test_truth_untouched_and_not_shared(self, rng, observed):
        # complete_dataset maps the completion back in place, so it must be
        # the solver's own array.
        t = rng.standard_normal((8, 7, 6))
        mask = rng.random(t.shape) < observed
        before = t.copy()
        report = complete(t, mask, SolverConfig(rank=2, max_iters=7, epsilon=1e-9))
        assert np.array_equal(t, before)
        assert not np.shares_memory(report.completed, t)

    def test_deterministic_reports(self):
        sr = synth_load_tensor(SynthSpec(dims=(10, 12, 8), rank=2), seed=3)
        masked = simulate_missing(sr.dataset, 0.4, 11)
        r1 = complete(masked.tensor, masked.mask, SolverConfig(rank=4, seed=5))
        r2 = complete(masked.tensor, masked.mask, SolverConfig(rank=4, seed=5))
        assert np.array_equal(r1.completed, r2.completed)
        assert r1.residual_history == r2.residual_history
        assert r1.iterations == r2.iterations

    def test_convergence_flag_semantics(self):
        sr = synth_load_tensor(SynthSpec(dims=(10, 12, 8), rank=2), seed=3)
        masked = simulate_missing(sr.dataset, 0.4, 11)
        cfg = SolverConfig(rank=4)
        report = complete(masked.tensor, masked.mask, cfg)
        assert report.converged
        assert report.residual_history[-1] <= cfg.epsilon
        assert all(r > cfg.epsilon for r in report.residual_history[:-1])

        capped = complete(masked.tensor, masked.mask, SolverConfig(rank=4, max_iters=3))
        assert not capped.converged
        assert capped.iterations == 3
        assert all(r > cfg.epsilon for r in capped.residual_history)

    def test_residual_history_length(self):
        sr = synth_load_tensor(SynthSpec(dims=(10, 12, 8), rank=2), seed=3)
        masked = simulate_missing(sr.dataset, 0.4, 11)
        report = complete(masked.tensor, masked.mask, SolverConfig(rank=4))
        assert len(report.residual_history) == report.iterations

    def test_default_rank_resolution(self, rng):
        t = rng.standard_normal((6, 30, 30))
        mask = rng.random(t.shape) < 0.8
        report = complete(t, mask, SolverConfig(max_iters=2, epsilon=1e-9))
        assert report.svd_shapes == ((6, 6), (30, 6), (30, 6))

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            complete(np.ones((2, 2, 2)), np.zeros((2, 2, 2), bool))

    def test_nan_input_rejected(self):
        t = np.ones((2, 2, 2))
        t[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            complete(t, np.ones(t.shape, bool))

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
    def test_divergence_names_the_iteration(self, monkeypatch, rng, bad):
        # From the third iteration on, the blocked pass rebuilds X from a
        # non-finite U3, or from one near 1e200 whose X is finite but whose
        # change is too large to square.
        calls = []
        update = cpd_lrtc.update_completion

        def diverging(state, *args):
            calls.append(None)
            if len(calls) >= 3:
                u = (*state.U[:2], np.full_like(state.U[2], bad))
                state = FactorSet(U=u, M=state.M, Y=state.Y)
            return update(state, *args)

        monkeypatch.setattr(cpd_lrtc, "update_completion", diverging)
        t = rng.standard_normal((8, 7, 6))
        mask = rng.random(t.shape) < 0.5
        with np.errstate(invalid="ignore"), pytest.raises(
            NumericalError, match=r"^iteration 3: completion diverged to non-finite values$"
        ):
            complete(t, mask, SolverConfig(rank=2, max_iters=10, epsilon=1e-9))
        assert len(calls) == 3

    def test_peak_memory_stays_near_three_tensors(self):
        # The bound from when each iteration allocated the completion's
        # successor: the completion, its successor, and the observed positions
        # and values (half a tensor each at 50% missing). The in-place step is
        # held to a tighter bound below.
        sr = synth_load_tensor(SynthSpec(dims=(31, 48, 114), rank=3), seed=7)
        masked = simulate_missing(sr.dataset, 0.5, derive_seed(11, "mask", "0.5"))
        t, mask = masked.tensor, masked.mask
        tracemalloc.start()
        try:
            complete(t, mask, SolverConfig(rank=5, max_iters=5, epsilon=1e-9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * t.nbytes


    @pytest.mark.parametrize("rate,bound", [(0.5, 2.9), (0.9, 1.95)])
    def test_peak_memory_of_the_in_place_step(self, rate, bound):
        # The completion updated in place, the observed positions and values,
        # and one block of at most _BLOCK_BYTES (0.39 of this tensor): peaks
        # of 2.69 and 1.79 tensors, against 3.18 and 2.38 when each iteration
        # allocated a new completion. The bounds add 0.2 tensors.
        sr = synth_load_tensor(SynthSpec(dims=(31, 48, 114), rank=3), seed=7)
        masked = simulate_missing(sr.dataset, rate, derive_seed(11, "mask", f"{rate}"))
        t, mask = masked.tensor, masked.mask
        tracemalloc.start()
        try:
            complete(t, mask, SolverConfig(rank=5, max_iters=5, epsilon=1e-9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * t.nbytes


def reference_complete(truth, mask, cfg):
    """The solver loop with unfolding-based MTTKRP and einsum reconstruction.

    Same algorithm as :func:`complete`, with every sum taken in the older
    order; the parity tests compare against it. Returns the completion, the
    residual history and the iteration count.
    """
    t = np.asarray(truth, dtype=np.float64)
    rank = cfg.rank if cfg.rank is not None else min(20, min(t.shape))
    state = init_factors(t.shape, rank, np.random.default_rng(cfg.seed))
    x = project(t, mask)
    denom = fro_norm(x) or 1.0
    mu = cfg.mu0
    history = []
    for _ in range(cfg.max_iters):
        u = list(state.U)
        for n in range(3):
            kr = khatri_rao(*(u[k] for k in (2, 1, 0) if k != n))
            rhs = cfg.lam * (unfold(x, n + 1) @ kr) + mu * state.M[n] + state.Y[n]
            gram = cfg.lam * (kr.T @ kr) + mu * np.eye(rank)
            u[n] = scipy.linalg.solve(gram, rhs.T, assume_a="pos").T
        state = FactorSet(U=tuple(u), M=state.M, Y=state.Y)
        state = update_auxiliary(state, cfg.alpha, mu)
        x_new = np.where(mask, t, np.einsum("ir,jr,kr->ijk", *state.U, optimize=True))
        state = update_multipliers(state, mu)
        resid = fro_norm(x_new - x) / denom
        history.append(resid)
        x = x_new
        mu = min(cfg.rho * mu, cfg.mu_max)
        if resid <= cfg.epsilon:
            break
    return x, np.array(history), len(history)


def parity_instance(dims, rate):
    sr = synth_load_tensor(SynthSpec(dims=dims, rank=3), seed=7)
    masked = simulate_missing(sr.dataset, rate, derive_seed(11, "mask", f"{rate}"))
    return masked.tensor, masked.mask


def rel_diff(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestParityWithUnfoldingLoop:
    @pytest.mark.parametrize("dims", [(30, 48, 50), (31, 48, 114)])
    @pytest.mark.parametrize("rate,rank", [(0.5, 5), (0.9, 5), (0.9, None)])
    def test_same_iterates(self, dims, rate, rank):
        t, mask = parity_instance(dims, rate)
        cfg = SolverConfig(rank=rank)
        ref, ref_history, ref_iters = reference_complete(t, mask, cfg)
        report = complete(t, mask, cfg)
        assert report.iterations == ref_iters
        assert rel_diff(report.completed, ref) <= 1e-10
        history = np.array(report.residual_history)
        assert np.max(np.abs(history - ref_history) / ref_history) <= 1e-8

    @pytest.mark.parametrize("dims", [(30, 48, 50), (31, 48, 114)])
    def test_within_rounding_sensitivity_at_default_rank(self, dims):
        # At the default rank (20) on rank-3 data with 50% missing, the loop
        # amplifies rounding: moving one observed entry by one ulp already
        # shifts the reference completion by 1e-4 to 5e-4 relative and its
        # iteration count from 143 to anywhere in 119..147 (31x48x114, one
        # BLAS thread; the BLAS thread count moves it too), so no reordering
        # of sums can match it to 1e-10. The rewrite is held to ten times the
        # completion's sensitivity and to 25% in the count instead.
        assert_within_rounding_sensitivity(reference_complete, dims)


def assert_within_rounding_sensitivity(reference, dims):
    """``complete`` at the default rank on the 50%-missing parity instance
    lies within ten times the completion's one-ulp sensitivity of
    ``reference`` and within 25% of its iteration count."""
    t, mask = parity_instance(dims, 0.5)
    cfg = SolverConfig()
    ref, _, ref_iters = reference(t, mask, cfg)[:3]
    nudged = t.copy()
    first = np.unravel_index(np.flatnonzero(mask)[0], t.shape)
    nudged[first] = np.nextafter(nudged[first], np.inf)
    ref_nudged = reference(nudged, mask, cfg)[0]
    sensitivity = rel_diff(ref_nudged, ref)
    report = complete(t, mask, cfg)
    assert rel_diff(report.completed, ref) <= max(10 * sensitivity, 1e-10)
    assert abs(report.iterations - ref_iters) <= 0.25 * ref_iters


def reference_own_loop_complete(truth, mask, cfg):
    """The copy-free solver with its own outer loop, as it stood before the
    loop was shared with HaLRTC and before the completion was rebuilt in
    place block by block: each sweep forms ``X_(12) @ U3`` and
    ``X_(12).T @ khatri_rao(U1, U2)``, and each completion is a new
    :func:`cp_reconstruct` with the observed entries written in. Returns the
    completion, the residual history, the iteration count and the
    convergence flag.
    """
    t = np.asarray(truth, dtype=np.float64)
    m = np.asarray(mask, dtype=bool)
    rank = cfg.rank if cfg.rank is not None else min(20, min(t.shape))
    state = init_factors(t.shape, rank, np.random.default_rng(cfg.seed))
    i1, i2, i3 = t.shape
    observed_idx = np.flatnonzero(m)
    observed = t[m]
    x = project(t, m)
    denom = fro_norm(x) or 1.0
    mu = cfg.mu0
    history = []
    converged = False
    for _ in range(cfg.max_iters):
        u1, u2, u3 = state.U
        x3 = x.reshape(i1 * i2, i3)
        z = (x3 @ u3).reshape(i1, i2, -1)
        g3 = u3.T @ u3
        u1 = ridge(state, 0, np.einsum("ijr,jr->ir", z, u2), g3, u2.T @ u2, cfg.lam, mu)
        g1 = u1.T @ u1
        u2 = ridge(state, 1, np.einsum("ijr,ir->jr", z, u1), g3, g1, cfg.lam, mu)
        u3 = ridge(state, 2, x3.T @ khatri_rao(u1, u2), g1, u2.T @ u2, cfg.lam, mu)
        state = FactorSet(U=(u1, u2, u3), M=state.M, Y=state.Y)
        state = update_auxiliary(state, cfg.alpha, mu)
        x_new = cp_reconstruct(state.U)
        x_new.reshape(-1)[observed_idx] = observed
        state = update_multipliers(state, mu)
        resid = fro_norm(np.subtract(x, x_new, out=x)) / denom
        history.append(resid)
        x = x_new
        mu = min(cfg.rho * mu, cfg.mu_max)
        if resid <= cfg.epsilon:
            converged = True
            break
    return x, tuple(history), len(history), converged


def ridge(state, n, mttkrp, gram_a, gram_b, lam, mu):
    """The mode-n ridge solve of the factor sweep, as the reference loops take it."""
    rhs = lam * mttkrp + mu * state.M[n] + state.Y[n]
    gram = lam * (gram_a * gram_b) + mu * np.eye(len(gram_a))
    return np.linalg.solve(gram, rhs.T).T


def reference_blocked_complete(truth, mask, cfg):
    """The solver loop in the order of :func:`complete`, written out: the
    factor sweep reads the mode-3 contraction of the previous completion
    pass, the mode-3 MTTKRP is the sum of its two row halves, and the
    completion is rebuilt in place, ``_BLOCK_BYTES`` of rows at a time, each
    block giving its squared change and its rows of the next contraction.
    Returns what :func:`reference_own_loop_complete` does.
    """
    t = np.asarray(truth, dtype=np.float64)
    m = np.asarray(mask, dtype=bool)
    rank = cfg.rank if cfg.rank is not None else min(20, min(t.shape))
    state = init_factors(t.shape, rank, np.random.default_rng(cfg.seed))
    i1, i2, i3 = t.shape
    observed_idx = np.flatnonzero(m)
    observed = t[m]
    x = project(t, m)
    x3 = x.reshape(i1 * i2, i3)
    rows = max(1, cpd_lrtc._BLOCK_BYTES // (8 * i3))
    denom = fro_norm(x) or 1.0
    z = x3 @ state.U[2]
    mu = cfg.mu0
    history = []
    converged = False
    for _ in range(cfg.max_iters):
        u1, u2, u3 = state.U
        zt = z.reshape(i1, i2, -1)
        g3 = u3.T @ u3
        u1 = ridge(state, 0, np.einsum("ijr,jr->ir", zt, u2), g3, u2.T @ u2, cfg.lam, mu)
        g1 = u1.T @ u1
        u2 = ridge(state, 1, np.einsum("ijr,ir->jr", zt, u1), g3, g1, cfg.lam, mu)
        kr = khatri_rao(u1, u2)
        h = len(kr) // 2
        mttkrp = kr[:h].T @ x3[:h] + kr[h:].T @ x3[h:]
        u3 = ridge(state, 2, mttkrp.T, g1, u2.T @ u2, cfg.lam, mu)
        state = FactorSet(U=(u1, u2, u3), M=state.M, Y=state.Y)
        state = update_auxiliary(state, cfg.alpha, mu)
        u3 = state.U[2]
        squared = 0.0
        for start in range(0, i1 * i2, rows):
            stop = min(start + rows, i1 * i2)
            block = kr[start:stop] @ u3.T
            inside = (start * i3 <= observed_idx) & (observed_idx < stop * i3)
            block.reshape(-1)[observed_idx[inside] - start * i3] = observed[inside]
            diff = (x3[start:stop] - block).reshape(-1)
            squared += float(diff @ diff)
            x3[start:stop] = block
            z[start:stop] = block @ u3
        state = update_multipliers(state, mu)
        resid = math.sqrt(squared) / denom
        history.append(resid)
        mu = min(cfg.rho * mu, cfg.mu_max)
        if resid <= cfg.epsilon:
            converged = True
            break
    return x, tuple(history), len(history), converged


class TestParityWithOwnLoop:
    """The shared ADMM loop runs exactly the arithmetic of the blocked loop
    written out, and stays where the solver's own loop put it."""

    @pytest.mark.parametrize("dims", [(30, 48, 50), (31, 48, 114)])
    @pytest.mark.parametrize("rate", [0.5, 0.9])
    @pytest.mark.parametrize("rank", [5, None])
    def test_bit_identical(self, dims, rate, rank):
        t, mask = parity_instance(dims, rate)
        cfg = SolverConfig(rank=rank)
        ref, ref_history, ref_iters, ref_converged = reference_blocked_complete(t, mask, cfg)
        report = complete(t, mask, cfg)
        assert np.array_equal(report.completed, ref)
        assert report.residual_history == ref_history
        assert report.iterations == ref_iters
        assert report.converged == ref_converged

    def test_bit_identical_with_many_blocks(self, monkeypatch):
        # 30x48x50 fits one default block; rows of 400 bytes cut it into 36.
        monkeypatch.setattr(cpd_lrtc, "_BLOCK_BYTES", 40 * 400)
        t, mask = parity_instance((30, 48, 50), 0.9)
        cfg = SolverConfig(rank=5)
        ref, ref_history, ref_iters, _ = reference_blocked_complete(t, mask, cfg)
        report = complete(t, mask, cfg)
        assert np.array_equal(report.completed, ref)
        assert report.residual_history == ref_history
        assert report.iterations == ref_iters

    @pytest.mark.parametrize("dims", [(30, 48, 50), (31, 48, 114)])
    @pytest.mark.parametrize("rate,rank", [(0.5, 5), (0.9, 5), (0.9, None)])
    def test_own_loop_within_rounding(self, dims, rate, rank):
        t, mask = parity_instance(dims, rate)
        cfg = SolverConfig(rank=rank)
        ref, ref_history, ref_iters, ref_converged = reference_own_loop_complete(t, mask, cfg)
        report = complete(t, mask, cfg)
        assert report.iterations == ref_iters
        assert report.converged == ref_converged
        assert rel_diff(report.completed, ref) <= 1e-10
        history = np.array(report.residual_history)
        assert np.max(np.abs(history - ref_history) / np.array(ref_history)) <= 1e-8

    @pytest.mark.parametrize("dims", [(30, 48, 50), (31, 48, 114)])
    def test_own_loop_within_rounding_sensitivity_at_default_rank(self, dims):
        assert_within_rounding_sensitivity(reference_own_loop_complete, dims)


def on_main_thread():
    return threading.current_thread() is threading.main_thread()


class TestWorker:
    """From ``_THREAD_MIN_SIZE`` entries on, a worker thread forms half of
    the mode-3 MTTKRP and rebuilds half of the completion's blocks, with the
    same bits as one thread, and every solve ends it."""

    def threaded(self, monkeypatch, threaded=True, block_bytes=40 * 400):
        # 30x48x50 rows of 400 bytes cut into 36 blocks, 18 a thread.
        monkeypatch.setattr(cpd_lrtc, "_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(cpd_lrtc, "_THREAD_MIN_SIZE", 1 if threaded else 10**12)

    def record_blocks(self, monkeypatch, fail_on=None, workers=None):
        """Count each thread's calls of the block pass, appending the thread
        of each call off the main thread to ``workers``; the ``fail_on``
        thread's third call raises instead."""
        calls = {True: 0, False: 0}
        rebuild = cpd_lrtc._rebuild_blocks

        def recording(blocks, *args):
            on_main = on_main_thread()
            calls[on_main] += 1
            if not on_main and workers is not None:
                workers.append(threading.current_thread())
            if fail_on == ("caller" if on_main else "worker") and calls[on_main] == 3:
                raise NumericalError("stand-in failure")
            return rebuild(blocks, *args)

        monkeypatch.setattr(cpd_lrtc, "_rebuild_blocks", recording)
        return calls

    @pytest.mark.parametrize("rank", [5, None])
    def test_threaded_solve_is_bit_identical(self, monkeypatch, rank):
        t, mask = parity_instance((30, 48, 50), 0.9)
        cfg = SolverConfig(rank=rank, max_iters=60)
        self.threaded(monkeypatch, threaded=False)
        calls = self.record_blocks(monkeypatch)
        inline = complete(t, mask, cfg)
        assert calls == {True: 2 * inline.iterations, False: 0}
        self.threaded(monkeypatch)
        workers = []
        calls = self.record_blocks(monkeypatch, workers=workers)
        threaded = complete(t, mask, cfg)
        assert calls == {True: threaded.iterations, False: threaded.iterations}
        # One worker thread serves the whole solve, not one per handoff. The
        # Thread objects are kept, so a second thread cannot reuse the id of
        # one that ended.
        assert len(set(workers)) == 1
        assert np.array_equal(threaded.completed, inline.completed)
        assert threaded.residual_history == inline.residual_history
        ref, ref_history, _, _ = reference_blocked_complete(t, mask, cfg)
        assert np.array_equal(threaded.completed, ref)
        assert threaded.residual_history == ref_history

    def test_small_tensors_start_no_worker(self, monkeypatch):
        t, mask = parity_instance((30, 48, 50), 0.9)
        monkeypatch.setattr(cpd_lrtc, "_THREAD_MIN_SIZE", t.size + 1)
        calls = self.record_blocks(monkeypatch)
        report = complete(t, mask, SolverConfig(rank=5, max_iters=3))
        assert calls == {True: 2 * report.iterations, False: 0}
        monkeypatch.setattr(cpd_lrtc, "_THREAD_MIN_SIZE", t.size)
        calls = self.record_blocks(monkeypatch)
        report = complete(t, mask, SolverConfig(rank=5, max_iters=3))
        assert calls == {True: report.iterations, False: report.iterations}

    @pytest.mark.parametrize(
        "max_iters,converged", [(500, True), (6, False)], ids=["converged", "max_iters"]
    )
    def test_solve_leaves_no_thread(self, monkeypatch, max_iters, converged):
        t, mask = parity_instance((30, 48, 50), 0.5)
        self.threaded(monkeypatch)
        before = threading.active_count()
        report = complete(t, mask, SolverConfig(rank=5, max_iters=max_iters))
        assert report.converged == converged
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_error_in_either_half_names_the_iteration(self, monkeypatch, failing):
        t, mask = parity_instance((30, 48, 50), 0.5)
        self.threaded(monkeypatch)
        calls = self.record_blocks(monkeypatch, fail_on=failing)
        before = threading.active_count()
        with pytest.raises(NumericalError, match=r"^iteration 3: stand-in failure$"):
            complete(t, mask, SolverConfig(rank=5, max_iters=10))
        assert threading.active_count() == before
        # The other thread ran its half of iteration 3, and nothing after it.
        assert calls == {True: 3, False: 3}

    def test_worker_sees_the_callers_error_state(self, monkeypatch):
        # numpy keeps np.errstate in a context variable; the worker runs its
        # half in a copy of the caller's context, taken inside
        # update_completion's errstate(over="ignore").
        t, mask = parity_instance((30, 48, 50), 0.5)
        self.threaded(monkeypatch)
        seen = []
        rebuild = cpd_lrtc._rebuild_blocks

        def recording(blocks, *args):
            err = np.geterr()
            seen.append((on_main_thread(), err["divide"], err["over"]))
            return rebuild(blocks, *args)

        monkeypatch.setattr(cpd_lrtc, "_rebuild_blocks", recording)
        with np.errstate(divide="raise"):
            complete(t, mask, SolverConfig(rank=5, max_iters=3))
        assert sorted(seen) == [(False, "raise", "ignore")] * 3 + [(True, "raise", "ignore")] * 3


def svd_path_reference(monkeypatch):
    """:func:`reference_own_loop_complete` with every SVT taken by thin SVD."""

    def run(truth, mask, cfg):
        with monkeypatch.context() as patched:
            patched.setattr(cpd_lrtc, "svt", reference_svd_svt)
            return reference_own_loop_complete(truth, mask, cfg)

    return run


class TestParityWithSvdPath:
    """Whole solves with the Gram-eigh svt stay where the SVD-based svt put them."""

    @pytest.mark.parametrize("dims", [(30, 48, 50), (31, 48, 114)])
    @pytest.mark.parametrize("rate,rank", [(0.5, 5), (0.9, 5), (0.9, None)])
    def test_same_completion(self, monkeypatch, dims, rate, rank):
        t, mask = parity_instance(dims, rate)
        cfg = SolverConfig(rank=rank)
        ref, _, ref_iters, _ = svd_path_reference(monkeypatch)(t, mask, cfg)
        report = complete(t, mask, cfg)
        assert report.iterations == ref_iters
        assert rel_diff(report.completed, ref) <= 1e-10

    @pytest.mark.parametrize("dims", [(30, 48, 50), (31, 48, 114)])
    def test_within_rounding_sensitivity_at_default_rank(self, monkeypatch, dims):
        # The chaotic instances of TestParityWithUnfoldingLoop, held to its rule.
        assert_within_rounding_sensitivity(svd_path_reference(monkeypatch), dims)
