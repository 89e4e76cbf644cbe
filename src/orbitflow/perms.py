"""Permutations of [n], Bruhat order, and signed permutation matrices.

Permutations are tuples of 1-based images: w = (w(1), ..., w(n)).
"""

import numpy as np

from .errors import LinalgError


def check_perm(w):
    w = tuple(int(i) for i in w)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise LinalgError(f"not a permutation of [n]: {w}")
    return w


def longest_perm(n):
    """w_0: the order-reversing permutation i -> n+1-i."""
    return tuple(range(n, 0, -1))


def inverse_perm(w):
    w = check_perm(w)
    inv = [0] * len(w)
    for j, i in enumerate(w):
        inv[i - 1] = j + 1
    return tuple(inv)


def compose_perm(u, v):
    """(u o v)(j) = u(v(j))."""
    u, v = check_perm(u), check_perm(v)
    return tuple(u[v[j] - 1] for j in range(len(v)))


def bruhat_leq(v, w):
    """Strong Bruhat order via the Gale order on all prefixes v([k]) <= w([k])."""
    v, w = check_perm(v), check_perm(w)
    n = len(v)
    for k in range(1, n):
        if any(a > b for a, b in zip(sorted(v[:k]), sorted(w[:k]))):
            return False
    return True


def inversions(seq):
    return sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq)) if seq[a] > seq[b])


def delta_matrix(n):
    """delta_n = diag(1, -1, 1, ..., (-1)^(n-1))."""
    return np.diag([(-1.0) ** i for i in range(n)])


def signed_perm(w):
    """Signed permutation matrix with all left-justified minors nonnegative.

    Column k carries the sign that makes the order-k left-justified minor on
    rows w([k]) positive, which forces the product of the first k signs to be
    the parity of the pattern of (w(1), ..., w(k)).
    """
    w = check_perm(w)
    n = len(w)
    M = np.zeros((n, n))
    prev = 1
    for k in range(1, n + 1):
        par = -1 if inversions(w[:k]) % 2 else 1
        M[w[k - 1] - 1, k - 1] = par * prev
        prev = par
    return M


def random_perm(n, rng):
    return tuple(int(i) + 1 for i in rng.permutation(n))
