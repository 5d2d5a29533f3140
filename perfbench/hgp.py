"""Hypergraph-product codes and a small GF(2) toolkit, independent of chainsurg.

The benchmark builds its k >> 2 inputs here and checks chainsurg's
outputs with these routines, so nothing in this file imports the package
under test.

Tillich and Zemor, "Quantum LDPC codes with positive rate and minimum
distance proportional to n^(1/2)", arXiv:0903.0566: for classical checks
H1 (m1 x n1) and H2 (m2 x n2),

    hx = [H1 (x) I_n2 | I_m1 (x) H2^T]
    hz = [I_n1 (x) H2 | H1^T (x) I_m2]

on n1*n2 + m1*m2 qubits, with k = k1*k2 + k1T*k2T logical qubits, where
k = n - rank(H) and kT = m - rank(H).
"""
from __future__ import annotations

import numpy as np


def gf2_rank(m) -> int:
    """Rank over GF(2) by plain row elimination."""
    a = np.array(m, dtype=np.uint8) % 2
    if a.ndim != 2 or 0 in a.shape:
        return 0
    r = 0
    for c in range(a.shape[1]):
        hit = np.nonzero(a[r:, c])[0]
        if hit.size == 0:
            continue
        p = r + hit[0]
        a[[r, p]] = a[[p, r]]
        below = np.nonzero(a[:, c])[0]
        a[below[below != r]] ^= a[r]
        r += 1
        if r == a.shape[0]:
            break
    return r


def gf2_matmul(a, b) -> np.ndarray:
    return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64) % 2).astype(np.uint8)


def repetition(length: int, cyclic: bool = False) -> np.ndarray:
    """Checks e_i + e_(i+1) of the length-L repetition code; cyclic adds e_(L-1) + e_0."""
    rows = length if cyclic else length - 1
    h = np.zeros((rows, length), dtype=np.uint8)
    for i in range(rows):
        h[i, i] = h[i, (i + 1) % length] = 1
    return h


def hamming(r: int) -> np.ndarray:
    """The r x (2^r - 1) Hamming check matrix; column j is the binary of j + 1."""
    cols = np.arange(1, 1 << r)
    return ((cols[None, :] >> np.arange(r - 1, -1, -1)[:, None]) & 1).astype(np.uint8)


def hypergraph_product(h1: np.ndarray, h2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m1, n1 = h1.shape
    m2, n2 = h2.shape
    hx = np.hstack([np.kron(h1, np.eye(n2, dtype=np.uint8)), np.kron(np.eye(m1, dtype=np.uint8), h2.T)])
    hz = np.hstack([np.kron(np.eye(n1, dtype=np.uint8), h2), np.kron(h1.T, np.eye(m2, dtype=np.uint8))])
    return hx.astype(np.uint8), hz.astype(np.uint8)


def expected_parameters(h1: np.ndarray, h2: np.ndarray) -> tuple[int, int]:
    """(n, k) of the product, from the classical codes alone."""
    (m1, n1), (m2, n2) = h1.shape, h2.shape
    r1, r2 = gf2_rank(h1), gf2_rank(h2)
    return n1 * n2 + m1 * m2, (n1 - r1) * (n2 - r2) + (m1 - r1) * (m2 - r2)


def css_k(hx: np.ndarray, hz: np.ndarray) -> int:
    return hx.shape[1] - gf2_rank(hx) - gf2_rank(hz)


def check_product(h1: np.ndarray, h2: np.ndarray, hx: np.ndarray, hz: np.ndarray) -> None:
    """Raise ValueError unless (hx, hz) is a valid product with the predicted n and k."""
    n, k = expected_parameters(h1, h2)
    if gf2_matmul(hx, hz.T).any():
        raise ValueError("hx . hz^T != 0")
    if hx.shape[1] != n or hz.shape[1] != n:
        raise ValueError(f"product has {hx.shape[1]} qubits, expected {n}")
    if css_k(hx, hz) != k:
        raise ValueError(f"product has k = {css_k(hx, hz)}, expected {k}")


# The k >> 2 ladder: name -> (H1, H2). Parameters are [[n, k]].
HGP_FAMILY = {
    "hgp_37_4": lambda: (repetition(4), hamming(3)),
    "hgp_47_4": lambda: (repetition(5), hamming(3)),
    "hgp_58_16": lambda: (hamming(3), hamming(3)),
    "hgp_117_44": lambda: (hamming(3), hamming(4)),
}
