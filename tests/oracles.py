"""Dense, brute-force reference implementations used as test oracles.

Everything here deliberately materializes full joint covariances with
``np.kron`` and uses dense factorizations; nothing is shared with the
package's eigendecomposition pipeline.  The dense non-subset stage-2 pack
borrows only the production parameter plumbing and Gram builder around its
dense core.
``reference_nll_core`` is the exception: the eigenbasis NLL and adjoints
written with plain numpy expressions, the bitwise reference for the
production core.  ``eager`` resolves a value-first objective's
gradients at once, the bitwise reference for deferring them.
``dense_capacitance_corrected_nll`` builds the low-rank non-subset NLL's
capacitance from the production slices but whole, the reference for its
blocked lower-triangle factorization.
Instances are kept tiny.  The PDE solver references at the end rebuild
each linear system from scratch and solve it through SciPy's validating
entry points, one input at a time.
"""

import numpy as np

from mfgar.gar import _Stage2Pack
from mfgar.kernels import ArdKernelParams, LatentFeatures, ard_gram, output_cov
from mfgar.hogp import TgpModel, _gram_parts
from mfgar.tensalg import kron_all, kruskal_outer, vec

LOG2PI = float(np.log(2.0 * np.pi))


def gaussian_nll(y, mean, cov):
    """Dense negative log density of N(mean, cov) at y."""
    r = y - mean
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    return 0.5 * (r @ np.linalg.solve(cov, r) + logdet + y.size * LOG2PI)


def output_factors(model: TgpModel) -> list:
    """Dense per-mode output covariances, ``np.eye`` where ``S_m = I``."""
    if model.output_features is None:
        return [np.eye(d) for d in model.mode_sizes]
    return [output_cov(model.output_features, m) for m in range(len(model.mode_sizes))]


def dense_output_cov(model: TgpModel) -> np.ndarray:
    """Kronecker product of all output factors (identity when S_m = I)."""
    mats = output_factors(model)
    return kron_all(mats) if mats else np.eye(1)


def dense_joint_cov(model: TgpModel) -> np.ndarray:
    K = ard_gram(model.input_kernel, model.X, model.X)
    S = dense_output_cov(model)
    n = model.n_samples * model.output_size
    return np.kron(K, S) + model.noise * np.eye(n)


def gar_joint_nll_dense(model, dataset, cap: int = 400) -> float:
    """Joint NLL of all levels of a fitted GAR model under the dense block covariance.

    Builds the full chain covariance explicitly (low block, cross blocks
    through the selection-and-transform map, residual blocks) and evaluates
    the stacked Gaussian density.  Only valid for subset chains and guarded
    by a total-dimension cap.
    """
    sizes = [lv.Y.size for lv in dataset.levels]
    total = sum(sizes)
    if total > cap:
        raise ValueError(f"total dimension {total} exceeds the dense-oracle cap {cap}")
    cov = dense_joint_cov(model.low)
    mean = np.tile(vec(model.low.offset), model.low.n_samples)
    blocks = [cov]
    means = [mean]
    cross: dict = {}
    for i, trans in enumerate(model.transitions):
        if not trans.plan.fully_matched:
            raise ValueError("dense joint oracle requires subset structure at every level")
        sel = np.zeros((trans.plan.n_matched, dataset.levels[i].n_samples))
        sel[np.arange(trans.plan.n_matched), trans.plan.matched_low] = 1.0
        G = np.kron(sel, kron_all(trans.weights.factors))
        res_cov = dense_joint_cov(trans.residual)
        prev = blocks[i]
        blocks.append(G @ prev @ G.T + res_cov)
        means.append(G @ means[i] + np.tile(vec(trans.residual.offset), trans.residual.n_samples))
        for j in range(i + 1):
            base = prev if j == i else cross[(i, j)]
            cross[(i + 1, j)] = G @ base

    n_levels = len(blocks)
    big = np.zeros((total, total))
    offs = np.concatenate([[0], np.cumsum(sizes)])
    for i in range(n_levels):
        big[offs[i] : offs[i + 1], offs[i] : offs[i + 1]] = blocks[i]
        for j in range(i):
            c = cross[(i, j)]
            big[offs[i] : offs[i + 1], offs[j] : offs[j + 1]] = c
            big[offs[j] : offs[j + 1], offs[i] : offs[i + 1]] = c.T
    y = np.concatenate(
        [vec(dataset.levels[0].Y)]
        + [vec(dataset.levels[i + 1].Y[t.plan.permutation]) for i, t in enumerate(model.transitions)]
    )
    mu = np.concatenate(means)
    r = y - mu
    sign, logdet = np.linalg.slogdet(big)
    if sign <= 0:
        raise np.linalg.LinAlgError("dense joint covariance not positive definite")
    return 0.5 * (r @ np.linalg.solve(big, r) + logdet + total * LOG2PI)


def dense_tgp_nll(model: TgpModel) -> float:
    yc = vec(model.centered)
    return gaussian_nll(yc, np.zeros_like(yc), dense_joint_cov(model))


def dense_tgp_adjoints(model: TgpModel):
    """Dense NLL adjoints of every covariance factor and of the noise variance.

    The joint adjoint is ``T = 1/2 (Sigma^-1 - alpha alpha^T)`` with
    ``alpha = Sigma^-1 vec(Yc)``; the adjoint of factor k contracts ``T``'s
    blocks against every other factor matrix, and the noise partial is
    ``trace(T)``.  Returns ``(gbars, d_noise)``, one matrix per factor
    (input Gram first, identity output factors included).
    """
    sigma = dense_joint_cov(model)
    inv = np.linalg.inv(sigma)
    alpha = inv @ vec(model.centered)
    T = 0.5 * (inv - np.outer(alpha, alpha))
    sizes = (model.n_samples, *model.mode_sizes)
    blocks = T.reshape(sizes + sizes)
    factors = [ard_gram(model.input_kernel, model.X, model.X)] + output_factors(model)
    gbars = [kron_partial(blocks, factors, k) for k in range(len(factors))]
    return gbars, float(np.trace(T))


def reference_nll_core(model: TgpModel):
    """``hogp._nll_core`` and its adjoint pass with freshly allocated temporaries.

    Returns ``(nll, gbars, d_noise, alpha)``.  The same operations in the
    same order and operand layouts, on the route of the model's covariance
    class, so the production core must match it bitwise.
    """
    if model.output_features is None:
        return _reference_input_space_core(model)
    eigs = model.eigenfactors()
    Yc = model.centered
    A = eigs.joint_values(model.noise)
    T1 = eigs.project(Yc)
    At = T1 / A
    quad = float(np.sum(T1 * At))
    logdet = float(np.sum(np.log(A)))
    nll = 0.5 * (quad + logdet + Yc.size * LOG2PI)

    inv_A = 1.0 / A
    gbars = []
    for k, U in enumerate(eigs.vectors):
        c = inv_A
        for j in range(len(eigs.values) - 1, -1, -1):
            if j != k:
                c = np.tensordot(c, eigs.values[j], axes=([j], [0]))
        lam_other = kruskal_outer([v for j, v in enumerate(eigs.values) if j != k])
        Ak = np.moveaxis(At, k, 0).reshape(At.shape[k], -1)
        Q = (Ak * lam_other.ravel()) @ Ak.T
        gbars.append(0.5 * ((U * c) @ U.T - U @ Q @ U.T))

    d_noise = 0.5 * (float(np.sum(inv_A)) - float(np.sum(At * At)))
    return nll, gbars, d_noise, eigs.unproject(At)


def _reference_input_space_core(model: TgpModel):
    """:func:`reference_nll_core` for identity output covariances."""
    n, d = model.n_samples, model.output_size
    Yc = model.centered.reshape(n, d)
    K = _gram_parts(model)[0][2]
    L = np.linalg.cholesky(K + model.noise * np.eye(n))
    l_inv = np.linalg.inv(L)
    g_inv = l_inv.T @ l_inv
    solved = g_inv @ (Yc @ Yc.T)
    logdet = 2.0 * float(np.log(L.diagonal()).sum())
    nll = 0.5 * (float(np.trace(solved)) + d * logdet + n * d * LOG2PI)
    gbar = 0.5 * (d * g_inv - solved @ g_inv)
    return nll, [gbar], float(np.trace(gbar)), (g_inv @ Yc).reshape(model.Y.shape)


def kron_partial(T_blocks, mats, open_idx):
    """Open-factor contraction of ``<T, mats_0 (x) mats_1 (x) ..>``.

    ``T_blocks`` has one row axis per factor, then one column axis per
    factor; every factor but ``open_idx`` is contracted away, leaving the
    matrix that pairs with a perturbation of the open factor.
    """
    n_f = len(mats)
    rows, cols = "abcdefghijkl"[:n_f], "mnopqrstuvwx"[:n_f]
    others = [j for j in range(n_f) if j != open_idx]
    expr = ",".join([rows + cols] + [rows[j] + cols[j] for j in others])
    return np.einsum(
        expr + "->" + rows[open_idx] + cols[open_idx], T_blocks, *[mats[j] for j in others]
    )


def dense_tgp_predict(model: TgpModel, x_star):
    """Exact conditional mean and variance diagonal, dense path.

    Observation noise is added to the variance diagonal, matching the
    production convention.
    """
    x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
    S = dense_output_cov(model)
    sigma = dense_joint_cov(model)
    yc = vec(model.centered)
    k_star = ard_gram(model.input_kernel, x_star, model.X)
    means, var_diags = [], []
    solve_y = np.linalg.solve(sigma, yc)
    for q in range(x_star.shape[0]):
        C = np.kron(k_star[q][None, :], S)  # d x (N d)
        mean = C @ solve_y
        cov = model.input_kernel.amplitude * S - C @ np.linalg.solve(sigma, C.T)
        means.append(mean.reshape(model.mode_sizes) + model.offset)
        var_diags.append(np.diag(cov).reshape(model.mode_sizes) + model.noise)
    return np.array(means), np.array(var_diags)


def make_random_tgp(
    rng,
    n_samples: int,
    mode_sizes,
    input_dim: int = 2,
    identity_outputs: bool = False,
    noise: float = 0.05,
    latent_rank: int = 2,
) -> TgpModel:
    """Random small model with well-conditioned, O(1) hyperparameters."""
    X = rng.uniform(-1.0, 1.0, size=(n_samples, input_dim))
    Y = rng.standard_normal((n_samples, *mode_sizes))
    kernel = ArdKernelParams(
        rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.5, size=input_dim)
    )
    feats = None
    if not identity_outputs:
        coords = [rng.standard_normal((d, latent_rank)) for d in mode_sizes]
        kerns = [
            ArdKernelParams(rng.uniform(-0.3, 0.3), rng.uniform(0.0, 0.7, size=latent_rank))
            for _ in mode_sizes
        ]
        feats = LatentFeatures(coords, kerns)
    return TgpModel(
        input_kernel=kernel,
        output_features=feats,
        log_noise=np.log(noise),
        X=X,
        Y=Y,
    )


def stored_arrays(model, prefix: str = "") -> dict:
    """Every array a bundle stores for a TGP or GAR model, by field name.

    For a non-subset transition the whole rebuilt augmented low model is
    listed, which covers the stored low model of a transition above the
    first.
    """
    if hasattr(model, "transitions"):
        out = stored_arrays(model.low, prefix + "low.")
        for i, t in enumerate(model.transitions):
            where = f"{prefix}transitions[{i}]."
            out.update({f"{where}weights[{m}]": f for m, f in enumerate(t.weights.factors)})
            out.update(stored_arrays(t.residual, where + "residual."))
            if t.workspace is not None:
                out.update(stored_arrays(t.workspace.aug_low, where + "aug_low."))
        return out
    out = {
        prefix + "X": model.X,
        prefix + "Y": model.Y,
        prefix + "offset": model.offset,
        prefix + "input_kernel.log_lengthscales": model.input_kernel.log_lengthscales,
    }
    if model.output_features is not None:
        feats = model.output_features
        for m, (V, k) in enumerate(zip(feats.coords, feats.kernels)):
            out[f"{prefix}output_features[{m}].coords"] = V
            out[f"{prefix}output_features[{m}].log_lengthscales"] = k.log_lengthscales
    return out


def sample_from_model(rng, model: TgpModel) -> np.ndarray:
    """Draw one observation tensor from the model's own joint Gaussian."""
    sigma = dense_joint_cov(model)
    L = np.linalg.cholesky(sigma + 1e-12 * np.eye(sigma.shape[0]))
    draw = L @ rng.standard_normal(sigma.shape[0])
    return draw.reshape((model.n_samples, *model.mode_sizes)) + model.offset


# ---------------------------------------------------------------------------
# Two-level fusion oracles (subset structure)
# ---------------------------------------------------------------------------


def dense_two_level_joint(low, weights, res, matched_low):
    """Chain covariance and mean of the stacked [vec(Y_low); vec(Y_high)].

    Built from first principles: the high observation is the selection of
    matched noisy low rows pushed through the Kronecker weight transform plus
    an independent residual draw.
    """
    n_low = low.n_samples
    n_high = res.n_samples
    sel = np.zeros((n_high, n_low))
    sel[np.arange(n_high), matched_low] = 1.0
    w_dense = kron_all([f for f in weights.factors])
    G = np.kron(sel, w_dense)
    sigma_l = dense_joint_cov(low)
    sigma_r = dense_joint_cov(res)
    top = np.hstack([sigma_l, sigma_l @ G.T])
    bottom = np.hstack([G @ sigma_l, G @ sigma_l @ G.T + sigma_r])
    sigma = np.vstack([top, bottom])
    mu = np.concatenate(
        [
            np.tile(vec(low.offset), n_low),
            G @ np.tile(vec(low.offset), n_low) + np.tile(vec(res.offset), n_high),
        ]
    )
    return sigma, mu, G


def dense_two_level_nll(low, weights, res, matched_low, y_low, y_high) -> float:
    sigma, mu, _ = dense_two_level_joint(low, weights, res, matched_low)
    y = np.concatenate([vec(y_low), vec(y_high)])
    return gaussian_nll(y, mu, sigma)


def dense_two_level_predict(low, weights, res, matched_low, y_low, y_high, x_star):
    """Exact conditional of the top-level field given both data blocks.

    Top-level observation noise is added to the variance diagonal.
    """
    x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
    sigma, mu, _ = dense_two_level_joint(low, weights, res, matched_low)
    y = np.concatenate([vec(y_low), vec(y_high)]) - mu
    S_l = dense_output_cov(low)
    S_r = dense_output_cov(res)
    w_dense = kron_all([f for f in weights.factors])
    k_star_l = ard_gram(low.input_kernel, x_star, low.X)
    k_star_r = ard_gram(res.input_kernel, x_star, res.X)
    k_lh = ard_gram(low.input_kernel, x_star, res.X)
    solve_y = np.linalg.solve(sigma, y)
    means, var_diags = [], []
    amp_l = low.input_kernel.amplitude
    amp_r = res.input_kernel.amplitude
    mean_offset = vec(tucker_weights_offset(weights, low.offset)) + vec(res.offset)
    for q in range(x_star.shape[0]):
        c_low = np.kron(k_star_l[q][None, :], w_dense @ S_l)
        sel_cross = np.kron(k_lh[q][None, :], w_dense @ S_l @ w_dense.T)
        c_high = sel_cross + np.kron(k_star_r[q][None, :], S_r)
        C = np.hstack([c_low, c_high])
        prior = amp_l * (w_dense @ S_l @ w_dense.T) + amp_r * S_r
        mean = C @ solve_y + mean_offset
        cov = prior - C @ np.linalg.solve(sigma, C.T)
        shape = res.mode_sizes
        means.append(mean.reshape(shape))
        var_diags.append(np.diag(cov).reshape(shape) + res.noise)
    return np.array(means), np.array(var_diags)


def tucker_weights_offset(weights, offset):
    from mfgar.tensalg import tucker_apply

    return tucker_apply(offset, [f for f in weights.factors])


def scalar_ar_dense_nll(rho, k_low, k_res, noise_low, noise_res, X_l, X_h, matched_low, y_l, y_h):
    """Classic scalar-output autoregression joint density, written directly.

    No Kronecker algebra: plain matrices over the stacked scalar
    observations, with the transfer acting on the noisy low values.
    """
    K_l = ard_gram(k_low, X_l, X_l) + noise_low * np.eye(X_l.shape[0])
    K_r = ard_gram(k_res, X_h, X_h) + noise_res * np.eye(X_h.shape[0])
    sel = np.zeros((X_h.shape[0], X_l.shape[0]))
    sel[np.arange(X_h.shape[0]), matched_low] = 1.0
    top = np.hstack([K_l, rho * K_l @ sel.T])
    bottom = np.hstack([rho * sel @ K_l, rho**2 * sel @ K_l @ sel.T + K_r])
    sigma = np.vstack([top, bottom])
    y = np.concatenate([np.ravel(y_l), np.ravel(y_h)])
    return gaussian_nll(y, np.zeros_like(y), sigma)


# ---------------------------------------------------------------------------
# Non-subset oracles: dense imputation chain and its marginal
# ---------------------------------------------------------------------------


def dense_imputation(low, x_hat):
    """Imputed mean operator and input-space posterior factor, dense path."""
    x_hat = np.atleast_2d(x_hat)
    S_l = dense_output_cov(low)
    sigma_l = dense_joint_cov(low)
    k_hat = ard_gram(low.input_kernel, x_hat, low.X)
    A = np.kron(k_hat, S_l) @ np.linalg.inv(sigma_l)
    K = ard_gram(low.input_kernel, low.X, low.X)
    k_hh = ard_gram(low.input_kernel, x_hat, x_hat)
    s_hat = k_hh - k_hat @ np.linalg.solve(K + low.noise * np.eye(K.shape[0]), k_hat.T)
    return A, 0.5 * (s_hat + s_hat.T)


def dense_three_block_joint(low, weights, res, plan, x_hat):
    """Joint Gaussian over [vec(Y_low); vec(Y_imaginary); vec(Y_high_perm)].

    The imaginary block is the imputation conditional N(A y_low, S_hat (x)
    S_low); the high block is the weight transform of the matched-first
    stack plus the residual draw.  Returns (Sigma, G, A) with G mapping the
    stacked [low; imaginary] vector to the transformed part of the high
    block.
    """
    n_low, n_m, n_high = low.n_samples, x_hat.shape[0], res.n_samples
    d_low = low.output_size
    S_l = dense_output_cov(low)
    sigma_l = dense_joint_cov(low)
    A, s_hat = dense_imputation(low, x_hat)
    cov_impute = np.kron(s_hat, S_l)
    sigma_hat = A @ sigma_l @ A.T + cov_impute
    sigma_hat_l = A @ sigma_l

    sel = np.zeros((n_high, n_low + n_m))
    sel[np.arange(plan.n_matched), plan.matched_low] = 1.0
    sel[np.arange(plan.n_matched, n_high), n_low + np.arange(n_m)] = 1.0
    w_dense = kron_all(weights.factors)
    G = np.kron(sel, w_dense)

    stack = np.block([[sigma_l, sigma_hat_l.T], [sigma_hat_l, sigma_hat]])
    sigma_r = dense_joint_cov(res)
    cross = G @ stack
    sigma_h = G @ stack @ G.T + sigma_r
    top = np.block(
        [
            [sigma_l, sigma_hat_l.T, cross[:, : n_low * d_low].T],
            [sigma_hat_l, sigma_hat, cross[:, n_low * d_low :].T],
        ]
    )
    sigma = np.block(
        [
            [top],
            [np.hstack([cross, sigma_h])],
        ]
    )
    return sigma, G, A


def dense_marginal_nonsubset_nll(low, weights, res, plan, x_hat, y_low, y_high_perm):
    """NLL of [vec(Y_low); vec(Y_high)] after integrating the imaginary block.

    Marginalization of a jointly Gaussian block is submatrix extraction, so
    this is exactly the closed form's target quantity, computed without any
    of the package's correction algebra.
    """
    n_low, n_m = low.n_samples, x_hat.shape[0]
    d_low = low.output_size
    sigma, _, _ = dense_three_block_joint(low, weights, res, plan, x_hat)
    keep = np.concatenate(
        [
            np.arange(n_low * d_low),
            np.arange((n_low + n_m) * d_low, sigma.shape[0]),
        ]
    )
    sub = sigma[np.ix_(keep, keep)]
    y = np.concatenate([vec(y_low), vec(y_high_perm)])
    return gaussian_nll(y, np.zeros_like(y), sub)


def dense_nonsubset_predict(low, weights, res, plan, x_hat, y_low, x_star):
    """Posterior of the top field: dense composition of the imputation chain.

    Mirrors the definition: condition on [low data; imputed mean] through the
    augmented operators, add the residual conditional, then widen by the
    imputation sensitivity; all with plain dense matrices.
    """
    x_star = np.atleast_2d(x_star)
    n_low, n_m = low.n_samples, x_hat.shape[0]
    S_l = dense_output_cov(low)
    S_r = dense_output_cov(res)
    d_low = low.output_size
    w_dense = kron_all(weights.factors)

    X_aug = np.vstack([low.X, x_hat])
    K_aug = ard_gram(low.input_kernel, X_aug, X_aug)
    sigma_aug = np.kron(K_aug, S_l) + low.noise * np.eye((n_low + n_m) * d_low)
    A, s_hat = dense_imputation(low, x_hat)
    y_bar = A @ vec(y_low)
    u = np.concatenate([vec(y_low), y_bar])

    sigma_r = dense_joint_cov(res)
    phi = vec(res.Y)  # residual data already holds Y_high - W [matched; imputed]

    k_aug = ard_gram(low.input_kernel, x_star, X_aug)
    k_res = ard_gram(res.input_kernel, x_star, res.X)
    amp_l, amp_r = low.input_kernel.amplitude, res.input_kernel.amplitude

    p_hat = np.zeros(((n_low + n_m) * d_low, n_m * d_low))
    p_hat[n_low * d_low :, :] = np.eye(n_m * d_low)
    emb = np.zeros((res.n_samples, n_m))
    emb[plan.n_matched :, :] = np.eye(n_m)

    means, var_diags = [], []
    for q in range(x_star.shape[0]):
        m_low = np.kron(k_aug[q][None, :], w_dense @ S_l) @ np.linalg.inv(sigma_aug)
        m_res = np.kron(k_res[q][None, :], S_r) @ np.linalg.inv(sigma_r)
        mean = m_low @ u + m_res @ phi
        base = (
            amp_l * (w_dense @ S_l @ w_dense.T)
            - np.kron(k_aug[q][None, :], w_dense @ S_l)
            @ np.linalg.solve(sigma_aug, np.kron(k_aug[q][:, None], S_l @ w_dense.T))
            + amp_r * S_r
            - np.kron(k_res[q][None, :], S_r) @ np.linalg.solve(sigma_r, np.kron(k_res[q][:, None], S_r))
        )
        gamma = m_low @ p_hat - m_res @ np.kron(emb, w_dense)
        total = base + gamma @ np.kron(s_hat, S_l) @ gamma.T
        means.append(mean.reshape(res.mode_sizes))
        var_diags.append(np.diag(total).reshape(res.mode_sizes) + res.noise)
    return np.array(means), np.array(var_diags)


def make_random_nonsubset(
    rng,
    n_low: int,
    n_matched: int,
    n_unmatched: int,
    low_modes,
    high_modes,
    input_dim: int = 2,
    identity_outputs: bool = False,
    orthonormal_w: bool = False,
    noise_low: float = 0.05,
    noise_res: float = 0.04,
):
    """Random consistent two-level instance with an imaginary subset."""
    from mfgar.gar import (
        GarModel,
        GarTransition,
        MultiFidelityDataset,
        SubsetPlan,
        TuckerWeights,
        _nonsubset_workspace,
    )
    from dataclasses import replace as dc_replace

    n_high = n_matched + n_unmatched
    X_l = rng.uniform(-1.0, 1.0, size=(n_low, input_dim))
    matched_low = rng.choice(n_low, size=n_matched, replace=False)
    X_h = np.vstack([X_l[matched_low], rng.uniform(-1.0, 1.0, size=(n_unmatched, input_dim))])
    low = make_random_tgp(rng, n_low, low_modes, input_dim, identity_outputs, noise_low)
    low = dc_replace(low, X=X_l, Y=rng.standard_normal((n_low, *low_modes)))
    facs = [rng.standard_normal((dh, dl)) for dh, dl in zip(high_modes, low_modes)]
    if orthonormal_w:
        from mfgar.cigar import orthonormalize

        facs = orthonormalize(TuckerWeights(facs)).factors
    weights = TuckerWeights(facs)
    y_high = rng.standard_normal((n_high, *high_modes))
    plan = SubsetPlan(np.arange(n_matched), matched_low, n_matched + np.arange(n_unmatched))

    ws = _nonsubset_workspace(low, X_h[n_matched:])
    stack = np.concatenate([low.Y[matched_low], ws.aug_low.Y[n_low:]], axis=0)
    resid = y_high - weights.apply(stack)
    res_proto = make_random_tgp(rng, n_high, high_modes, input_dim, identity_outputs, noise_res)
    res = dc_replace(res_proto, X=X_h, Y=resid)
    model = GarModel(low=low, transitions=[GarTransition(weights, res, plan, ws)])
    dataset = MultiFidelityDataset([(X_l, low.Y), (X_h, y_high)])
    return model, dataset


def low_stack(trans, y_low):
    """Low-level rows a transition's weights act on, in residual row order.

    The matched rows of the low data ``y_low``, then (non-subset
    transitions) the imputed means at the unmatched inputs, which are the
    trailing pseudo-observations of the workspace's augmented low model.
    """
    stack = y_low[trans.plan.matched_low]
    if trans.workspace is None:
        return stack
    imputed = trans.workspace.aug_low.Y[-trans.plan.n_unmatched :]
    return np.concatenate([stack, imputed], axis=0)


def embedded_cov(s_hat, n_high, n_matched):
    """Imputation covariance ``S_hat`` embedded into the matched-first high row order."""
    emb = np.zeros((n_high, n_high))
    emb[n_matched:, n_matched:] = s_hat
    return emb


class DenseNonsubsetPack(_Stage2Pack):
    """Exact corrected non-subset stage-2 objective on the dense covariance.

    The residual block's covariance ``K_r (x) S_r + B (x) W S_low W^T +
    noise I`` (matched-first rows, ``B`` the embedded imputation covariance
    ``S_hat``) is built with ``kron_all`` and factorized by one Cholesky.
    The adjoints contract ``T = 1/2 (Sigma^-1 - alpha alpha^T)`` against
    every factor but one: the input Gram, each latent output covariance, and
    each ``W_m`` through its sandwich ``W_m S_low_m W_m^T``.  Only the
    covariance core is dense; the Gram parts (``_gram_parts``, which the
    gradient pass pulls back through), the parameter packing, the residual
    and the W gradient through it are the production ``_Stage2Pack``
    plumbing.  This
    is the reference the identity-output pack is checked against, value and
    gradient.
    """

    def __init__(self, low_stack, y_high, template, w_init, w_mode, s_hat, s_low, n_matched):
        super().__init__(low_stack, y_high, template, w_init, w_mode)
        self.b_input = embedded_cov(s_hat, y_high.shape[0], n_matched)
        self.s_low = s_low

    def _core(self, model, weights):
        from scipy.linalg import cho_factor, cho_solve

        grams = _gram_parts(model)
        K_r = grams[0][2]
        s_mats = [K for _, _, K in grams[1:]] or [np.eye(d) for d in model.mode_sizes]
        sand = [w @ s @ w.T for w, s in zip(weights.factors, self.s_low)]
        n = model.Y.size
        sigma = kron_all([K_r] + s_mats) + kron_all([self.b_input] + sand)
        sigma += model.noise * np.eye(n)
        chol = cho_factor(sigma, lower=True)
        phi = vec(model.centered)
        alpha = cho_solve(chol, phi)
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol[0]))))
        value = 0.5 * (float(phi @ alpha) + logdet + n * LOG2PI)

        T = 0.5 * (cho_solve(chol, np.eye(n)) - np.outer(alpha, alpha))
        blocks = T.reshape(model.Y.shape * 2)
        base = [K_r] + s_mats
        gbars = [kron_partial(blocks, base, 0)]
        if model.output_features is not None:
            gbars += [kron_partial(blocks, base, m) for m in range(1, len(base))]
        correction = [self.b_input] + sand
        w_cov_grads = []
        for m, (w, s) in enumerate(zip(weights.factors, self.s_low)):
            q = kron_partial(blocks, correction, m + 1)
            w_cov_grads.append((q + q.T) @ w @ s)
        adjoints = gbars, float(np.trace(T)), alpha.reshape(model.Y.shape), w_cov_grads
        return value, grams, lambda: adjoints


def dense_nonsubset_pack(model, dataset):
    """``DenseNonsubsetPack`` at a two-level non-subset model's own parameters, free W.

    ``model`` and ``dataset`` as ``make_random_nonsubset`` returns them; the
    objective at ``pack.pack()`` is the model's corrected residual NLL.
    """
    trans = model.transitions[0]
    return DenseNonsubsetPack(
        low_stack(trans, dataset.levels[0].Y),
        dataset.levels[1].Y[trans.plan.permutation],
        trans.residual,
        trans.weights,
        "free",
        trans.workspace.s_hat,
        output_factors(model.low),
        trans.plan.n_matched,
    )


def dense_capacitance_corrected_nll(trans, low) -> float:
    """``gar._corrected_nll_low_rank`` with the whole Woodbury capacitance built and factored.

    The same rotated roots and Khatri-Rao slices as production, but every
    input-root pair's slice is written into one dense ``rank x rank``
    matrix ``I + G^T D^-1 G``, which SciPy's validating ``cho_factor`` and
    ``solve_triangular`` factor and solve in one piece.  Reference for the
    blocked lower-triangle factorization.
    """
    from scipy.linalg import cho_factor, solve_triangular

    from mfgar.gar import (
        _imputation_roots,
        _input_contraction,
        _khatri_rao_blocks,
        _rotated_roots,
    )
    from mfgar.hogp import _nll_value
    from mfgar.tensalg import tucker_apply

    res, ws = trans.residual, trans.workspace
    nll_base, (eigs, A, _, At) = _nll_value(res)
    roots = _rotated_roots(
        eigs, _imputation_roots(ws.s_hat, low), trans.plan.n_matched, trans.weights
    )
    rank = int(np.prod([r.shape[1] for r in roots]))
    lt_alpha = vec(tucker_apply(At, [r.T for r in roots]))
    n_m, col_sizes = roots[0].shape[1], [r.shape[1] for r in roots[1:]]
    cap = np.eye(rank)
    cap_t = cap.reshape(n_m, *col_sizes, n_m, *col_sizes)
    core = _input_contraction(roots[0].T, roots[0], A)
    pairs = [a for c in col_sizes[:-1] for a in (c, c)]
    n_modes = len(col_sizes)
    order = [*range(0, 2 * n_modes, 2), *range(1, 2 * n_modes, 2)]
    for b, rows, out in _khatri_rao_blocks(core, [r.T for r in roots[1:]], roots[1:]):
        c0_row, c0 = divmod(b, n_m)
        block = out.reshape(*pairs, -1, col_sizes[-1]).transpose(order)
        cap_t[(c0_row, *[slice(None)] * (n_modes - 1), rows, c0)] += block
    chol, _ = cho_factor(cap.T, lower=True, overwrite_a=True)
    half = solve_triangular(chol, lt_alpha, lower=True)
    return nll_base + 0.5 * (2.0 * float(np.sum(np.log(np.diag(chol)))) - float(half @ half))


def make_random_two_level(
    rng,
    n_low: int,
    n_high: int,
    low_modes,
    high_modes,
    input_dim: int = 2,
    identity_outputs: bool = False,
    noise_low: float = 0.05,
    noise_res: float = 0.04,
):
    """Random consistent two-level subset instance (model + dataset)."""
    from mfgar.gar import (
        GarModel,
        GarTransition,
        MultiFidelityDataset,
        SubsetPlan,
        TuckerWeights,
    )

    X_l = rng.uniform(-1.0, 1.0, size=(n_low, input_dim))
    X_h = X_l[:n_high]
    low = make_random_tgp(rng, n_low, low_modes, input_dim, identity_outputs, noise_low)
    low = TgpModel(
        input_kernel=low.input_kernel,
        output_features=low.output_features,
        log_noise=low.log_noise,
        X=X_l,
        Y=rng.standard_normal((n_low, *low_modes)),
    )
    weights = TuckerWeights(
        [rng.standard_normal((dh, dl)) for dh, dl in zip(high_modes, low_modes)]
    )
    y_high = rng.standard_normal((n_high, *high_modes))
    resid = y_high - weights.apply(low.Y[:n_high])
    res_proto = make_random_tgp(rng, n_high, high_modes, input_dim, identity_outputs, noise_res)
    res = TgpModel(
        input_kernel=res_proto.input_kernel,
        output_features=res_proto.output_features,
        log_noise=res_proto.log_noise,
        X=X_h,
        Y=resid,
    )
    plan = SubsetPlan(np.arange(n_high), np.arange(n_high), np.array([], int))
    model = GarModel(
        low=low,
        transitions=[GarTransition(weights, res, plan)],
    )
    dataset = MultiFidelityDataset([(X_l, low.Y), (X_h, y_high)])
    return model, dataset


def column_stream_gamma_variance(trans, Xs, downstream, out_shape):
    """Imputation-variance term of the top-level prediction, column by column.

    Reference for ``gar._gamma_variance``: every column of a square root of
    ``S_hat (x) S_low`` is zero-padded into the augmented-low and residual
    data tensors, projected in full into an eigenbasis of each model's
    dense factors (``np.eye`` ones for identity outputs), divided by the
    joint eigenvalues, pushed through the prediction-mean factors and the
    downstream weights, and the squared difference of the two paths is
    summed.  No rotated roots and no chunking.
    """
    from mfgar.tensalg import EigenFactors, tucker_apply

    ws, res = trans.workspace, trans.residual
    aug = ws.aug_low
    n_m = ws.s_hat.shape[0]
    n_low, n_matched = aug.n_samples - n_m, trans.plan.n_matched

    def root(s):
        lam, U = np.linalg.eigh(s)
        return U * np.sqrt(np.clip(lam, 0.0, None))

    roots = [root(ws.s_hat)] + [root(s) for s in output_factors(aug)]

    # (model, first imputed row, weights folded into the perturbation,
    #  weights composed after the model's own mean factors)
    paths = []
    for model, offset, fold, after in (
        (aug, n_low, None, [trans.weights] + list(downstream)),
        (res, n_matched, trans.weights, list(downstream)),
    ):
        K = ard_gram(model.input_kernel, model.X, model.X)
        eigs = EigenFactors.from_matrices([K] + output_factors(model))
        facs = [ard_gram(model.input_kernel, Xs, model.X) @ eigs.vectors[0]]
        for m, (U, lam) in enumerate(zip(eigs.vectors[1:], eigs.values[1:])):
            f = U * lam
            for w in after:
                f = w.factors[m] @ f
            facs.append(f)
        paths.append((model, offset, fold, facs, eigs, eigs.joint_values(model.noise)))

    total = np.zeros((Xs.shape[0], *out_shape))
    col_shape = tuple(r.shape[1] for r in roots)
    for flat in range(int(np.prod(col_shape))):
        multi = np.unravel_index(flat, col_shape)
        col = kruskal_outer([r[:, j] for r, j in zip(roots, multi)])
        terms = []
        for model, offset, fold, facs, eigs, A in paths:
            pert = col if fold is None else tucker_apply(col, fold.factors, mode_offset=1)
            padded = np.zeros((model.n_samples, *pert.shape[1:]))
            padded[offset:] = pert
            terms.append(tucker_apply(eigs.project(padded) / A, facs))
        total += (terms[0] - terms[1]) ** 2
    return total


def eager(objective):
    """A value-first objective with each gradient resolved at once.

    Every call runs the gradient pass right after the value pass and scores
    ``(inf, 0)`` where the value or a gradient entry is not finite, the way
    an objective returning its gradient with its value does.  ``minimize``
    must reach bitwise the same point and trace with and without it.
    """

    def resolved(p):
        value, gradient = objective(p)
        g = np.asarray(gradient(), dtype=float)
        if not (np.isfinite(value) and np.all(np.isfinite(g))):
            value, g = np.inf, np.zeros_like(g)
        return value, lambda: g

    return resolved


def count_gram_builds(monkeypatch) -> list:
    """A list that gains the row count of every kernel Gram built from now on.

    Every Gram of the package, in an objective or not, is built by
    ``kernels.ard_gram_parts``, looked up on the module at each call.
    """
    import mfgar.kernels as kernels

    real, built = kernels.ard_gram_parts, []

    def counted(params, X1, X2):
        built.append(len(X1))
        return real(params, X1, X2)

    monkeypatch.setattr(kernels, "ard_gram_parts", counted)
    return built


def record_cholesky_sizes(monkeypatch) -> list:
    """A list that gains the order of every matrix ``np.linalg.cholesky`` factors from now on."""
    real, sizes = np.linalg.cholesky, []

    def recorded(a, *args, **kwargs):
        sizes.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", recorded)
    return sizes


def grad_audit(objective, point, eps: float = 1e-5) -> float:
    """Componentwise central-difference check of an objective's gradient.

    Returns the maximum relative error between the supplied gradient and the
    central finite difference, with the difference value as the reference
    scale.  This is the oracle for every analytic gradient in the package.
    """
    p = np.asarray(point, dtype=float)
    _, gradient = objective(p)
    g = np.asarray(gradient(), dtype=float)
    worst = 0.0
    for i in range(p.size):
        e = np.zeros_like(p)
        e[i] = eps
        f_plus, _ = objective(p + e)
        f_minus, _ = objective(p - e)
        fd = (f_plus - f_minus) / (2.0 * eps)
        err = abs(g[i] - fd) / max(abs(fd), 1e-8)
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# PDE solver steps
# ---------------------------------------------------------------------------


def banded_tridiag_solve(lower, diag, upper, rhs):
    """Tridiagonal solve through ``scipy.linalg.solve_banded`` on (1, 1) bands."""
    from scipy.linalg import solve_banded

    ab = np.zeros((3, diag.size))
    ab[0, 1:] = upper
    ab[1] = diag
    ab[2, :-1] = lower
    return solve_banded((1, 1), ab, rhs)


def burgers_field_reference(viscosity, spec, fidelity, solve=banded_tridiag_solve):
    """The Burgers field of ``solve_burgers`` stepped for one viscosity alone.

    The per-input stepping the lockstep solver replaced: the same assembly,
    Picard sweeps and substep bisection, with each sweep's tridiagonal system
    solved by ``solve`` on its own.
    """
    from mfgar.pdebench import TIME_SPAN

    lo, hi = spec.input_ranges[0]
    if not lo <= viscosity <= hi:
        raise ValueError(f"viscosity {viscosity} outside [{lo}, {hi}]")
    n_x, n_t = spec.mesh(fidelity)
    x = np.linspace(0.0, 1.0, n_x)
    h = x[1] - x[0]
    dt = TIME_SPAN["burgers"] / (n_t - 1)
    u = np.sin(np.pi * x / 2.0)
    out = np.empty((n_x, n_t))
    out[:, 0] = u

    n_i = n_x - 2
    mass_d = np.full(n_i, 4.0 * h / 6.0)
    mass_o = np.full(n_i - 1, h / 6.0)
    visc_d = viscosity * np.full(n_i, 2.0 / h)
    visc_o = viscosity * np.full(n_i - 1, -1.0 / h)

    def mass_apply(v):
        out = mass_d * v
        out[1:] += mass_o * v[:-1]
        out[:-1] += mass_o * v[1:]
        return out

    def picard_step(u_old, dt_step):
        u_new = u_old.copy()
        u_new[0] = 0.0
        u_new[-1] = 0.0
        rhs = mass_apply(u_old[1:-1])
        rhs[0] += h / 6.0 * u_old[0]
        rhs[-1] += h / 6.0 * u_old[-1]
        for _ in range(50):
            third = u_new[1:-1] / 3.0
            int_left = u_new[:-2] / 6.0 + third
            int_right = third + u_new[2:] / 6.0
            cd = int_left - int_right
            cu = int_right[:-1]
            cl = -int_left[1:]
            diag = mass_d + dt_step * (visc_d + cd)
            lowr = mass_o + dt_step * (visc_o + cl)
            uppr = mass_o + dt_step * (visc_o + cu)
            candidate = solve(lowr, diag, uppr, rhs)
            change = float(np.max(np.abs(candidate - u_new[1:-1])))
            u_new[1:-1] = candidate
            if not np.all(np.isfinite(candidate)):
                return None
            if change < 1e-8:
                return u_new
        return None

    def advance(u_old, dt_step, depth=0):
        done = picard_step(u_old, dt_step)
        if done is not None:
            return done
        if depth >= 12:
            raise RuntimeError("Picard iteration did not converge at the smallest substep")
        half = advance(u_old, dt_step / 2.0, depth + 1)
        return advance(half, dt_step / 2.0, depth + 1)

    for step in range(1, n_t):
        u = advance(u, dt)
        out[:, step] = u
    return out


def spsolve_poisson_field(values, mesh):
    """The Poisson field of ``solve_poisson`` with the operator assembled per
    call and solved by ``spsolve`` on its CSR form."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.linalg import spsolve

    left, right, bottom, top, center = values
    n, m = mesh
    u = np.zeros((n, m))
    fixed = np.zeros((n, m), dtype=bool)
    u[0, :], fixed[0, :] = left, True
    u[-1, :], fixed[-1, :] = right, True
    u[1:-1, 0], fixed[1:-1, 0] = bottom, True
    u[1:-1, -1], fixed[1:-1, -1] = top, True
    for i in center_nodes(n):
        for j in center_nodes(m):
            u[i, j], fixed[i, j] = center, True
    free = ~fixed
    n_free = int(free.sum())
    if n_free:
        idx = -np.ones((n, m), dtype=int)
        idx[free] = np.arange(n_free)
        free_r, free_c = np.nonzero(free)
        k = idx[free_r, free_c]
        rows = [k]
        cols = [k]
        data = [np.full(n_free, 4.0)]
        rhs = np.zeros(n_free)
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            rr, cc = free_r + dr, free_c + dc
            nb_fixed = fixed[rr, cc]
            np.add.at(rhs, k[nb_fixed], u[rr[nb_fixed], cc[nb_fixed]])
            rows.append(k[~nb_fixed])
            cols.append(idx[rr[~nb_fixed], cc[~nb_fixed]])
            data.append(np.full((~nb_fixed).sum(), -1.0))
        A = coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_free, n_free),
        ).tocsr()
        u[free] = spsolve(A, rhs)
    return u


def center_nodes(n):
    """Indices of the pinned center nodes along a Poisson mesh axis of ``n`` nodes."""
    return [n // 2] if n % 2 == 1 else [n // 2 - 1, n // 2]


def dense_poisson_oracle(values, n):
    """Same stencil assembled over every node with identity rows for the
    constraints; solved densely."""
    left, right, bottom, top, center = values
    A = np.zeros((n * n, n * n))
    b = np.zeros(n * n)

    def k(i, j):
        return i * n + j

    fixed = {}
    for j in range(n):
        fixed[k(0, j)] = left
        fixed[k(n - 1, j)] = right
    for i in range(1, n - 1):
        fixed[k(i, 0)] = bottom
        fixed[k(i, n - 1)] = top
    for i in center_nodes(n):
        for j in center_nodes(n):
            fixed[k(i, j)] = center
    for i in range(n):
        for j in range(n):
            kk = k(i, j)
            if kk in fixed:
                A[kk, kk] = 1.0
                b[kk] = fixed[kk]
            else:
                A[kk, kk] = 4.0
                for ii, jj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                    A[kk, k(ii, jj)] = -1.0
    return np.linalg.solve(A, b).reshape(n, n)
