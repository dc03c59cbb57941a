"""Reference form of the master equation, for the tests only.

The library applies a generator one way: the real matrix
linalg.real_superop of models.liouvillian or models.commutator_superop,
on herm_to_vec vectors.  These helpers apply the same generator straight
from its definition, -i[H(t), rho] plus the dissipators, on matrices, so
the tests can check that route against something built independently.
"""

import numpy as np


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A, B] = AB - BA."""
    return a @ b - b @ a


def dissipator(q: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """2 Q rho Q^dag - Q^dag Q rho - rho Q^dag Q (the caller applies the rate/2)."""
    qd = q.conj().T
    qdq = qd @ q
    return 2.0 * (q @ rho @ qd) - qdq @ rho - rho @ qdq


def hamiltonian_at(m, t: float) -> np.ndarray:
    """H0 + u(t) H1 of a model, or H0 when it has no drive."""
    if m.drive is None:
        return m.hamiltonian
    return m.hamiltonian + m.drive.u(t) * m.drive.h1


def generator_apply(m, rho: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Right-hand side of the master equation of model m at time t."""
    rho = np.asarray(rho, dtype=np.complex128)
    assert rho.shape == (m.dim, m.dim), f"rho is {rho.shape}, model is {m.dim}-dim"
    out = -1j * commutator(hamiltonian_at(m, t), rho)
    for rate, q in m.jumps:
        out += (rate / 2.0) * dissipator(q, rho)
    return out
