"""Fast zero-order-hold LTI stepping shared by the sysid and simloop drivers.

Uses the exact matrix-exponential discretization; this is podlab's only
time-domain integrator.  The exponential is computed with numpy alone, as is
all of podlab: scipy's bundled OpenBLAS LAPACK wakes a worker pool whose idle
spin slows the single-threaded Python that follows each call (see the README).
"""
from __future__ import annotations

import math

import numpy as np

from .lti import StateSpace

# steps per lifted block: the state recursion runs once per block, so a
# K-step simulation takes K/_BLOCK Python iterations
_BLOCK = 64

# Pade(13) coefficients b_0 ... b_13 and the 1-norm up to which the
# approximant needs no scaling (Higham 2005, SIAM J. Matrix Anal. Appl. 26(4))
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(M: np.ndarray) -> np.ndarray:
    """exp(M) by scaling and squaring with a Pade(13) approximant."""
    norm = float(np.abs(M).sum(axis=0).max())
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    A = M / 2.0**s
    b = _PADE13
    I = np.eye(A.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    # exp(A) ~ (V - U)^-1 (V + U) with U odd and V even in A
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def zoh_discretize(A: np.ndarray, B: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact ZOH discretization via the augmented-matrix exponential."""
    n, m = A.shape[0], B.shape[1]
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A
    M[:n, n:] = B
    E = _expm(M * dt)
    return E[:n, :n], E[:n, n:]


def zoh_lsim(
    ss: StateSpace, u: np.ndarray, dt: float, x0: np.ndarray | None = None
) -> np.ndarray:
    """Simulate a SISO/MISO system with ZOH input; returns the output trace.

    The recursion x[k+1] = Ad x[k] + Bd u[k], y[k] = C x[k] + D u[k] is
    lifted to blocks of L = _BLOCK steps.  With U_b the L inputs of block b,
    x_{b+1} = Ad^L x_b + Gamma U_b, Gamma = [Ad^(L-1) Bd ... Ad Bd  Bd], and
    the L outputs of block b are O x_b + T U_b, with O = [C; C Ad; ...] and
    T the lower-triangular block Toeplitz matrix of the Markov parameters
    D, C Bd, C Ad Bd, ...
    """
    u2 = np.atleast_2d(np.asarray(u, dtype=float))
    if u2.shape[0] == 1 and ss.B.shape[1] == 1:
        u2 = u2.T
    Ad, Bd = zoh_discretize(ss.A, ss.B, dt)
    C, D = ss.C, ss.D
    (K, m), n, p, L = u2.shape, ss.order, C.shape[0], _BLOCK
    powers = [np.eye(n)]  # Ad^0 ... Ad^L
    for _ in range(L):
        powers.append(Ad @ powers[-1])
    obs = np.stack([C @ P for P in powers[:L]])  # (L, p, n)
    markov = np.concatenate([D[None], obs[:-1] @ Bd])  # (L, p, m)
    lag = np.subtract.outer(np.arange(L), np.arange(L))  # i - j
    T = np.where((lag >= 0)[:, :, None, None], markov[np.maximum(lag, 0)], 0.0)
    T = T.transpose(0, 2, 1, 3).reshape(L * p, L * m)
    Gamma = np.stack([P @ Bd for P in powers[L - 1 :: -1]], axis=1).reshape(n, L * m)
    Phi = powers[L]

    n_blocks = -(-K // L)
    U = np.zeros((n_blocks * L, m))
    U[:K] = u2
    U = U.reshape(n_blocks, L * m)
    drive = U @ Gamma.T
    X = np.empty((n_blocks, n))
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    for b in range(n_blocks):
        X[b] = x
        x = Phi @ x + drive[b]
    y = (X @ obs.reshape(L * p, n).T + U @ T.T).reshape(n_blocks * L, p)[:K]
    return y[:, 0] if p == 1 else y
