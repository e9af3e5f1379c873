import numpy as np
import pytest

import theory_suite as th


def test_inverse_identity_random_systems():
    rng = np.random.default_rng(0)
    worst = 0.0
    for n in (4, 8, 16):
        for alpha in (1e-3, 1e-1, 1.0):
            for mu in (0.0, alpha):
                sys = th.random_system(rng, n // 2 + 1, n, n // 2, alpha, mu)
                worst = max(worst, th.verify_inverse_identity(sys))
    assert worst <= 1e-10


def test_decoupled_case_block_diagonal():
    # L = 0: the inverse block-diagonalizes to (P^-1, M^-1)
    rng = np.random.default_rng(1)
    sys = th.random_system(rng, 4, 6, 3, alpha=0.1, mu=0.0)
    sys = th.BlockSystem(K=sys.K, L=np.zeros_like(sys.L), C=sys.C,
                         alpha=0.1, mu=0.0)
    O = th.build_O(sys)
    nq = sys.n_q
    M = sys.C.T @ sys.C + sys.K.T @ sys.K
    assert np.abs(O[:nq, :nq] - np.eye(nq) / 0.1).max() < 1e-12
    assert np.abs(O[:nq, nq:]).max() < 1e-14
    assert np.abs(O[nq:, nq:] - np.linalg.inv(M)).max() < 1e-10


def test_singular_K_rejected():
    with pytest.raises(ValueError):
        th.BlockSystem(K=np.zeros((3, 3)), L=np.eye(3), C=np.eye(3),
                       alpha=0.1)


def test_bound_iii_and_identity_ii():
    rng = np.random.default_rng(2)
    base = th.random_system(rng, 5, 8, 4, 1.0)

    def factory(alpha, mu):
        return th.BlockSystem(K=base.K, L=base.L, C=base.C, alpha=alpha,
                              mu=mu)

    report = th.verify_bound_iii(factory, np.logspace(-4, 0, 9))
    assert report["ok"]
    assert report["proof_bound"] <= 1.0
    assert report["ct_bound"] <= 1.0
    assert report["identity_ii"] <= 1.0
    assert np.isfinite(report["alpha_yinv_max"])


def test_bound_iii_trivial_identity_case():
    # K = I, L = 0, C = 0, mu = 0, alpha = 1: |Y^-1| = 1
    sys = th.BlockSystem(K=np.eye(4), L=np.zeros((4, 3)),
                         C=np.zeros((2, 4)), alpha=1.0, mu=0.0)
    Yinv = np.linalg.inv(sys.Y())
    assert abs(np.linalg.norm(Yinv, 2) - 1.0) < 1e-12


def test_schur_coercivity_and_minv_bound():
    rng = np.random.default_rng(3)
    for _ in range(20):
        sys = th.random_system(rng, 4, 6, 3, alpha=0.05, mu=0.0)
        P = sys.L.T @ sys.L + sys.alpha * np.eye(sys.n_q)
        M = sys.C.T @ sys.C + sys.K.T @ sys.K
        N = P - sys.L.T @ sys.K @ np.linalg.inv(M) @ sys.K.T @ sys.L
        q = rng.standard_normal(sys.n_q)
        assert q @ (N @ q) >= sys.alpha * (q @ q) * (1 - 1e-12)
        assert np.linalg.norm(np.linalg.inv(M), 2) <= \
            np.linalg.norm(np.linalg.inv(sys.K), 2) ** 2 * (1 + 1e-12)


def test_filter_nu_algebraic_cases():
    lam = np.logspace(-8, 2, 200)
    stable = np.logspace(1, 3, 40)
    # nu = 1: alpha lambda / (lambda + alpha) <= alpha (C_1 = 1)
    r = th.verify_filter_lemma(lam, stable, [1e-3, 1e-1, 1.0], nu=1.0)
    assert r["ok"]
    # nu = 1/2: the sup over lambda is alpha^(1/2) / 2, attained at
    # lambda = alpha
    assert abs(th.filter_constant_nu(0.5) - 0.5) < 1e-15
    for alpha in (1e-4, 1e-2):
        grid = np.array([alpha])  # include the maximizer in the spectrum
        r = th.verify_filter_lemma(np.append(lam, alpha), stable, [alpha],
                                   nu=0.5)
        assert abs(r["worst_ratio"] - 1.0) < 1e-12


def test_filter_logarithmic():
    lam_q = np.logspace(-8, 0, 300) / np.e
    lam_v = np.linspace(0.2, 1.0 / np.e, 30)
    r = th.verify_filter_lemma(lam_q, lam_v, np.logspace(-4, 0, 25) / np.e,
                               p=1.0)
    assert r["ok"] and r["fitted_cp"] <= 2.0
    with pytest.raises(ValueError):
        th.verify_filter_lemma(np.array([0.5]), lam_v, [0.1], p=1.0)


def test_suite_runs_clean():
    rep = th.run_theory_suite(seed=0, trials=60)
    assert rep.ok
    assert rep.max_identity_err <= 1e-10
    assert "PASS" in rep.text()
