"""Chebyshev collocation grids and differentiation matrices."""

import numpy as np


def cheb_grid(N, a, b):
    """Chebyshev-Gauss-Lobatto nodes on [a, b] (increasing) and the first-derivative matrix.

    N is the polynomial degree; N+1 nodes are returned.  The matrix is the
    standard spectral differentiation matrix with the negative-sum trick on
    the diagonal.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    n = np.arange(N + 1)
    x = np.cos(np.pi * n / N)
    c = np.hstack([2.0, np.ones(N - 1), 2.0]) * (-1.0) ** n
    X = np.tile(x, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    # flip to increasing order and map [-1,1] -> [a,b]
    x = x[::-1]
    D = D[::-1, ::-1]
    nodes = a + (b - a) * (x + 1.0) / 2.0
    return nodes, D * (2.0 / (b - a))
