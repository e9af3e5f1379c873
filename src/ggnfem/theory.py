"""Finite-dimensional validation of the block-operator estimates.

The all-at-once derivative T = [[0, C], [L, K]] maps (q, v) to
(observation, state-equation) perturbations.  With Tikhonov shifts
alpha on the parameter block and mu on the state block,

    Y = T'T + diag(alpha I, mu I)

has an explicit inverse built from the Schur complement
N = P - L'K M^{-1} K'L with P = L'L + alpha I and
M = C'C + K'K + mu I; these suites check the inverse identity, the
operator-norm bounds behind it, and the spectral filter estimates on
diagonal models, reporting the worst case over randomized trials.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

__all__ = [
    "BlockSystem",
    "random_system",
    "build_O",
    "verify_inverse_identity",
    "verify_bound_iii",
    "verify_filter_lemma",
    "run_theory_suite",
    "TheoryReport",
]


@dataclass
class BlockSystem:
    """Dense blocks with an invertible state derivative K."""

    K: np.ndarray
    L: np.ndarray
    C: np.ndarray
    alpha: float
    mu: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        n = self.K.shape[0]
        if self.K.shape != (n, n):
            raise ValueError("K must be square")
        cond = np.linalg.cond(self.K)
        if not np.isfinite(cond) or cond > 1e12:
            raise ValueError(f"K is numerically singular (cond={cond:.2e})")
        self.cond_K = cond

    @property
    def n_q(self) -> int:
        return self.L.shape[1]

    @property
    def n_v(self) -> int:
        return self.K.shape[1]

    def T(self) -> np.ndarray:
        return np.block([[np.zeros((self.C.shape[0], self.n_q)), self.C],
                         [self.L, self.K]])

    def Y(self) -> np.ndarray:
        T = self.T()
        shifts = np.repeat([self.alpha, self.mu], [self.n_q, self.n_v])
        return T.T @ T + np.diag(shifts)


def random_system(rng, n_q: int, n_v: int, m: int,
                  alpha: float, mu: float = 0.0) -> BlockSystem:
    """Random blocks; K shifted by a multiple of the identity so that it
    is invertible with recorded condition number.

    Entries are iid uniform scaled by 1/sqrt(n) so operator norms stay
    O(1) across sizes and the inverse identity is not drowned in
    conditioning noise.
    """
    s = 1.0 / np.sqrt(n_v)
    A = rng.uniform(-s, s, (n_v, n_v))
    K = A + (np.linalg.norm(A, 2) + 1.0) * np.eye(n_v)
    L = rng.uniform(-s, s, (n_v, n_q))
    C = rng.uniform(-s, s, (m, n_v))
    return BlockSystem(K=K, L=L, C=C, alpha=alpha, mu=mu)


def build_O(sys: BlockSystem) -> np.ndarray:
    """The explicit inverse of Y from the Schur-complement formula.

    M and the Schur complement N are symmetric positive definite, so
    their inverses are applied through Cholesky factorizations.
    """
    from scipy.linalg import cho_factor, cho_solve

    K, L, C = sys.K, sys.L, sys.C
    P = L.T @ L + sys.alpha * np.eye(sys.n_q)
    M = C.T @ C + K.T @ K + sys.mu * np.eye(sys.n_v)
    try:
        Mf = cho_factor(M)
        G = K.T @ L
        MinvG = cho_solve(Mf, G)
        N = P - G.T @ MinvG
        Nf = cho_factor(0.5 * (N + N.T))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("Schur complement numerically singular") from exc
    Ninv = cho_solve(Nf, np.eye(sys.n_q))
    Minv = cho_solve(Mf, np.eye(sys.n_v))
    B = cho_solve(Nf, MinvG.T)
    return np.block([
        [Ninv, -B],
        [-B.T, Minv + MinvG @ cho_solve(Nf, MinvG.T)],
    ])


def verify_inverse_identity(sys: BlockSystem) -> float:
    """Spectral norm of O Y - I."""
    Y = sys.Y()
    return _norm2(build_O(sys) @ Y - np.eye(len(Y)))


def _norm2(A) -> float:
    return float(np.linalg.norm(A, 2))


def verify_bound_iii(sys_factory, alpha_grid, mus=(0.0, 0.5, 1.0)):
    """Norm bound on Y^{-1} over an alpha grid.

    For each alpha and mu = factor * alpha, checks both the explicit
    proof bound

        |Y^{-1}|^2 <= 2/alpha^2 (1 + |L|^2 |K|^2 |K^{-1}|^4)^2
                      + 2 |K^{-1}|^4

    and the product-form consequence |Y^{-1}| <= c_T (1/alpha + 1), and
    the identity |Y^{-1} T'T| <= 1 + max(alpha, mu) |Y^{-1}|.  Returns a
    dict of worst-case margins (all must be <= 1).
    """
    worst = {"proof_bound": 0.0, "ct_bound": 0.0, "identity_ii": 0.0,
             "alpha_yinv_max": 0.0}
    for alpha in alpha_grid:
        for fac in mus:
            sys = sys_factory(alpha, fac * alpha)
            Y = sys.Y()
            Yinv = np.linalg.inv(Y)
            ny = _norm2(Yinv)
            nK = _norm2(sys.K)
            nKi = _norm2(np.linalg.inv(sys.K))
            nL = _norm2(sys.L)
            proof_sq = (2.0 / alpha**2) * (1.0 + nL**2 * nK**2 * nKi**4) ** 2 \
                + 2.0 * nKi**4
            c_t = max(np.sqrt(2.0) * (1.0 + nL**2 * nK**2 * nKi**4),
                      np.sqrt(2.0) * nKi**2)
            T = sys.T()
            lhs_ii = _norm2(Yinv @ (T.T @ T))
            rhs_ii = 1.0 + max(alpha, fac * alpha) * ny
            for key, val in (("proof_bound", ny / np.sqrt(proof_sq)),
                             ("ct_bound", ny / (c_t * (1.0 / alpha + 1.0))),
                             ("identity_ii", lhs_ii / rhs_ii),
                             ("alpha_yinv_max", alpha * ny)):
                worst[key] = max(worst[key], val)
    worst["ok"] = all(worst[k] <= 1.0 + 1e-12
                      for k in ("proof_bound", "ct_bound", "identity_ii"))
    return worst


def filter_constant_nu(nu: float) -> float:
    """sup over lambda of lambda^nu / (lambda + 1) scaling constant."""
    if nu in (0.0, 1.0):
        return 1.0
    return nu**nu * (1.0 - nu) ** (1.0 - nu)


def verify_filter_lemma(spectrum_q, spectrum_v, alpha_grid,
                        nu=None, p=None, mu_factors=(0.0, 0.5, 1.0)):
    """Spectral filter bounds on a diagonal model.

    The model operator is diagonal with T'T eigenvalues spectrum_q on
    the alpha-shifted block and spectrum_v on the mu-shifted block; the
    state block inherits a positive lower bound from the invertible
    linearization.  For kappa(l) = l^nu the bound is

        alpha |(T'T + diag)^{-1} kappa(T'T)| <= C_nu alpha^nu,
        C_nu = nu^nu (1-nu)^(1-nu),

    and for kappa_p(l) = log(1/l)^{-p} (spectrum within (0, 1/e]) the
    fitted constant against f_p(alpha) = log(1/alpha)^{-p} is reported.
    """
    lam_q = np.asarray(spectrum_q, dtype=float)
    lam_v = np.asarray(spectrum_v, dtype=float)
    if nu is None and p is None or (nu is not None and p is not None):
        raise ValueError("give exactly one of nu, p")
    if nu is not None and not 0.0 <= nu <= 1.0:
        raise ValueError("nu must be in [0, 1]")
    if p is not None:
        if p <= 0:
            raise ValueError("p must be positive")
        lam_all = np.concatenate([lam_q, lam_v])
        if np.any(lam_all <= 0) or np.any(lam_all > 1.0 / np.e):
            raise ValueError("spectrum must lie in (0, 1/e] for the "
                             "logarithmic filter")

    def kappa(lam):
        if nu is not None:
            return lam**nu
        return np.log(1.0 / lam) ** (-p)

    worst_ratio = 0.0
    for alpha in alpha_grid:
        for fac in mu_factors:
            mu = fac * alpha
            val_q = alpha * kappa(lam_q) / (lam_q + alpha)
            val_v = alpha * kappa(lam_v) / (lam_v + mu)
            s = max(val_q.max(), val_v.max())
            if nu is not None:
                bound = filter_constant_nu(nu) * alpha**nu
            else:
                if alpha > 1.0 / np.e:
                    raise ValueError("alpha grid must lie in (0, 1/e] for "
                                     "the logarithmic filter")
                bound = np.log(1.0 / alpha) ** (-p)
            worst_ratio = max(worst_ratio, s / bound)
    if nu is not None:
        return {"worst_ratio": worst_ratio, "ok": worst_ratio <= 1.0 + 1e-12}
    return {"fitted_cp": worst_ratio, "ok": worst_ratio <= 2.0}


@dataclass
class TheoryReport:
    ok: bool
    max_identity_err: float
    bound_margins: dict
    filter_nu: dict
    filter_p: dict
    schur_coercivity_ok: bool
    minv_bound_ok: bool
    trials: int
    lines: list = dc_field(default_factory=list)

    def text(self) -> str:
        return "\n".join(self.lines)


def run_theory_suite(seed: int = 0, trials: int = 100) -> TheoryReport:
    """All theory checks; nonzero max margins above 1 mean failure."""
    rng = np.random.default_rng(seed)
    lines = []

    max_err = 0.0
    schur_ok = True
    minv_ok = True
    sizes = (4, 8, 16)
    alphas = (1e-3, 1e-1, 1.0)
    for t in range(trials):
        n_v = int(sizes[t % len(sizes)])
        n_q = max(2, n_v // 2)
        m = max(1, n_v // 2)
        alpha = float(alphas[t % len(alphas)])
        mu = alpha if t % 2 else 0.0
        sys = random_system(rng, n_q, n_v, m, alpha, mu)
        max_err = max(max_err, verify_inverse_identity(sys))
        # Coercivity of the Schur complement: (N q, q) >= alpha |q|^2.
        P = sys.L.T @ sys.L + alpha * np.eye(n_q)
        M = sys.C.T @ sys.C + sys.K.T @ sys.K + mu * np.eye(n_v)
        N = P - sys.L.T @ sys.K @ np.linalg.inv(M) @ sys.K.T @ sys.L
        qv = rng.standard_normal(n_q)
        if qv @ (N @ qv) < alpha * (qv @ qv) * (1.0 - 1e-10):
            schur_ok = False
        if _norm2(np.linalg.inv(M)) > _norm2(np.linalg.inv(sys.K)) ** 2 * (1 + 1e-10):
            minv_ok = False
    lines.append(f"inverse identity: max |O Y - I| = {max_err:.3e} over "
                 f"{trials} trials")

    rng2 = np.random.default_rng(seed + 1)
    base = random_system(rng2, 6, 8, 5, 1.0)

    def factory(alpha, mu):
        return BlockSystem(K=base.K, L=base.L, C=base.C, alpha=alpha, mu=mu)

    margins = verify_bound_iii(factory, np.logspace(-4, 0, 9))
    lines.append(f"norm bounds: proof {margins['proof_bound']:.3f}, "
                 f"c_T {margins['ct_bound']:.3f}, "
                 f"identity {margins['identity_ii']:.3f} (all <= 1)")
    lines.append(f"alpha * |Y^-1| stays <= {margins['alpha_yinv_max']:.3f} "
                 "over the sweep")

    lam_q = np.logspace(-10, 2, 300)
    lam_v = np.logspace(1, 3, 100)  # stable block bounded away from zero
    filt_nu = {}
    nu_ok = True
    for nu in (0.0, 0.25, 0.5, 0.75, 1.0):
        r = verify_filter_lemma(lam_q, lam_v, np.logspace(-6, 0, 25), nu=nu)
        filt_nu[nu] = r["worst_ratio"]
        nu_ok = nu_ok and r["ok"]
    lines.append("filter (power): worst ratios "
                 + ", ".join(f"nu={k}: {v:.3f}" for k, v in filt_nu.items()))

    lam_qp = np.logspace(-8, 0, 200) / np.e
    lam_vp = np.linspace(0.2, 1.0 / np.e, 50)
    filt_p = verify_filter_lemma(lam_qp, lam_vp,
                                 np.logspace(-4, 0, 20) / np.e, p=1.0)
    lines.append(f"filter (log, p=1): fitted C_p = {filt_p['fitted_cp']:.3f} "
                 "(<= 2)")

    ok = (max_err <= 1e-10 and margins["ok"] and nu_ok and filt_p["ok"]
          and schur_ok and minv_ok)
    lines.append(f"RESULT: {'PASS' if ok else 'FAIL'}")
    return TheoryReport(
        ok=ok, max_identity_err=max_err, bound_margins=margins,
        filter_nu={"ratios": filt_nu, "ok": nu_ok}, filter_p=filt_p,
        schur_coercivity_ok=schur_ok, minv_bound_ok=minv_ok, trials=trials,
        lines=lines)
