"""Shared oracles and generators for the test suite.

The oracles here are deliberately naive: quadratic transforms, dense kron
matrices, scalar loops.  They share no code with the package internals so
agreement is evidence, not tautology.
"""

from __future__ import annotations

import math

import numpy as np


def oracle_wht(values: np.ndarray) -> np.ndarray:
    """Quadratic Walsh-Hadamard transform with the (-1)^popcount kernel."""
    size = values.shape[0]
    out = np.zeros(size, dtype=values.dtype)
    for x in range(size):
        acc = values[0] * 0
        for y in range(size):
            sign = -1 if bin(x & y).count("1") % 2 else 1
            acc = acc + sign * values[y]
        out[x] = acc
    return out


def oracle_hadamard_all(amps: np.ndarray, qubits: int) -> np.ndarray:
    """Dense H^(x)qubits as an explicit kron product matrix."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    full = np.array([[1.0]])
    for _ in range(qubits):
        full = np.kron(full, h)
    return full @ amps


def oracle_xrot_matrix(support: tuple[int, ...], angle: float, qubits: int):
    """exp(i * angle * X_S) as a dense matrix, X_S built from krons."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    op = np.array([[1.0]])
    for q in range(qubits):
        op = np.kron(op, x if q in support else eye)
    size = 1 << qubits
    return math.cos(angle) * np.eye(size) + 1j * math.sin(angle) * op


def oracle_marginal(theta: np.ndarray, m: int, n: int) -> np.ndarray:
    """Visible marginal via dense matrices only; usable up to ~10 qubits."""
    total = m + n
    amps = np.exp(1j * np.asarray(theta, dtype=np.float64)) / math.sqrt(1 << total)
    out = oracle_hadamard_all(amps, total)
    joint = np.abs(out) ** 2
    return joint.reshape(1 << m, 1 << n).sum(axis=0)


def allocation_sums(cols: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums (math.fsum) and column sums of an allocation's padded arrays."""
    rows = np.zeros(len(cols))
    columns = np.zeros(len(cols))
    for i, (row_cols, row_vals) in enumerate(zip(cols.tolist(), vals.tolist())):
        filled = [(c, v) for c, v in zip(row_cols, row_vals) if c >= 0]
        rows[i] = math.fsum(v for _, v in filled)
        for c, v in filled:
            columns[c] += v
    return rows, columns


def is_uma(amps: np.ndarray, tol: float = 1e-12) -> bool:
    """Whether every amplitude has modulus 2**(-qubits/2) within tol."""
    return bool(np.abs(np.abs(amps) - 1.0 / math.sqrt(amps.size)).max() <= tol)


def random_dist(rng: np.random.Generator, n: int) -> np.ndarray:
    """Normalized random vector with varied texture: dense, spiky, or gappy."""
    size = 1 << n
    style = rng.integers(4)
    if style == 0:
        raw = rng.random(size)
    elif style == 1:
        raw = rng.random(size) ** 8  # a few heavy outcomes
    elif style == 2:
        raw = rng.random(size)
        raw[rng.random(size) < 0.5] = 0.0  # exact zeros
        if raw.max() == 0.0:
            raw[int(rng.integers(size))] = 1.0
    else:
        raw = rng.integers(0, 16, size).astype(np.float64)  # dyadic-friendly
        if raw.max() == 0.0:
            raw[0] = 1.0
    return raw / math.fsum(raw)
