"""Tensor algebra substrate: the vec convention and eigen-structured solves.

Everything downstream rests on two facts demonstrated here:

1. with C-order vec and mode-first Kronecker factors,
   vec(T x_1 W_1 x_2 W_2) == kron(W_1, W_2) @ vec(T);
2. a covariance of the form K (x) S_1 (x) S_2 + noise*I can be solved and
   log-determined from the small factor eigendecompositions alone, matching
   the dense computation to machine precision at a fraction of the cost.
"""

import numpy as np

from mfgar import EigenFactors, tucker_apply, vec
from mfgar.tensalg import kron_all

rng = np.random.default_rng(0)

print("== vec / Kronecker consistency ==")
T = rng.standard_normal((2, 3))
W1 = rng.standard_normal((4, 2))
W2 = rng.standard_normal((5, 3))
lhs = vec(tucker_apply(T, [W1, W2]))
rhs = kron_all([W1, W2]) @ vec(T)
print(f"max |vec(T x W) - (W1 (x) W2) vec(T)| = {np.abs(lhs - rhs).max():.2e}")

print("\n== eigendecomposition-structured solve ==")
def spd(n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)

K, S1, S2 = spd(6), spd(3), spd(4)
noise = 0.1
Y = rng.standard_normal((6, 3, 4))

# rotate Y into the joint eigenbasis and divide by the joint eigenvalues
# A = lam_K (o) lam_1 (o) lam_2 + noise: the quadratic form is <Z, Z / A>
# and the log-determinant is the sum of log A
eigs = EigenFactors.from_matrices([K, S1, S2])
A = eigs.joint_values(noise)
Z = eigs.project(Y)
quad = float(np.sum(Z * (Z / A)))
logdet = float(np.sum(np.log(A)))

sigma = kron_all([K, S1, S2]) + noise * np.eye(72)
quad_dense = vec(Y) @ np.linalg.solve(sigma, vec(Y))
logdet_dense = np.linalg.slogdet(sigma)[1]
print(f"quadratic form: pipeline {quad:.10f}  dense {quad_dense:.10f}")
print(f"log-determinant: pipeline {logdet:.10f}  dense {logdet_dense:.10f}")
print("the pipeline never builds the 72 x 72 joint matrix; it factorizes")
print(f"only {[len(v) for v in eigs.values]}-sized blocks.")
