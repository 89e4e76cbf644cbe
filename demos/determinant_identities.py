"""Determinant identities behind everything else: Laplace expansion,
Cauchy-Binet, Jacobi's minor formula for the inverse, and the Vandermonde
product formula, spot-checked on random matrices."""

import numpy as np

from orbitflow import linalg

rng = np.random.default_rng(0)

M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
det = linalg._det(M)
I = (2, 4)
total = sum((-1) ** (sum(I) + sum(J))
            * linalg.minor(M, I, J)
            * linalg.minor(M, tuple(i for i in range(1, 6) if i not in I),
                           tuple(j for j in range(1, 6) if j not in J))
            for J in linalg.index_sets(5, 2))
print(f"Laplace expansion along rows {I}: residual {abs(total - det):.2e}")

A = rng.normal(size=(4, 6))
B = rng.normal(size=(6, 5))
lhs = linalg.minor(A @ B, (1, 4), (2, 5))
rhs = sum(linalg.minor(A, (1, 4), K) * linalg.minor(B, K, (2, 5))
          for K in linalg.index_sets(6, 2))
print(f"Cauchy-Binet on a 4x6 * 6x5 product:  residual {abs(lhs - rhs):.2e}")

g = rng.normal(size=(4, 4))
gi = np.linalg.inv(g)
I, J = (1, 3), (2, 4)
sgn = (-1) ** (sum(I) + sum(J))
rhs = sgn / linalg._det(g) * linalg.minor(g, (1, 3), (2, 4))
print(f"Jacobi's formula for inverse minors:  residual "
      f"{abs(linalg.minor(gi, I, J) - rhs):.2e}")

lam = np.array([2.0, 0.7, -0.4, -1.8])
V = np.vander(lam, 4, increasing=True)
prod = np.prod([lam[j] - lam[i] for i in range(4) for j in range(i + 1, 4)])
print(f"Vandermonde determinant formula:      residual "
      f"{abs(linalg._det(V) - prod):.2e}")

f = linalg.iwasawa(np.array([[1.0, 1.0], [1.0, 2.0]]))
print("\nIwasawa factors of [[1,1],[1,2]]:")
print("  k =", np.round(f.k_factor.real, 6).tolist())
print("  h =", np.round(np.diag(f.h_factor).real, 6).tolist())
print("  n01 =", round(f.n_factor[0, 1].real, 6), "(= 3/2 from Gram-Schmidt)")
