"""Dense statevector simulators: the independent reference for the samplers.

Basis states are indexed by integers; bit ``v`` of the index is the value of
qubit ``v``.  Everything here is exact and deliberately capped at sizes where
dense simulation is instant, so the fast analytic samplers in ``gqlab`` can
be validated against an independent route.  The exact-phase recovery of a
monotone junta's variables (``bv_with_size_oracle``), the routine behind the
charged cost of time-efficient group testing, is simulated here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from gqlab.errors import ScaleError
from gqlab.graphs import Graph

__all__ = [
    "Statevector",
    "PauliOutcome",
    "MAX_STATE_QUBITS",
    "MAX_BELL_QUBITS",
    "build_graph_state",
    "apply_pauli_string",
    "pauli_string",
    "bell_distribution",
    "fourier_sampling_distribution",
    "BVResult",
    "MAX_BV_QUBITS",
    "bv_with_size_oracle",
    "relevant_variables",
    "is_monotone",
]

MAX_STATE_QUBITS = 16
MAX_BELL_QUBITS = 8
MAX_BV_QUBITS = 14


def _bit_parity(values: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each entry (uint64 fold)."""
    v = values.astype(np.uint64, copy=True)
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> np.uint64(shift)
    return (v & np.uint64(1)).astype(np.int8)


class Statevector:
    """Dense state on ``n`` qubits; enforces normalization at construction."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps: np.ndarray):
        if n > MAX_STATE_QUBITS:
            raise ScaleError(f"statevector capped at {MAX_STATE_QUBITS} qubits")
        amps = np.asarray(amps, dtype=np.complex128)
        if amps.shape != (1 << n,):
            raise ValueError("amplitude length must be 2**n")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state not normalized (|psi|^2 = {norm})")
        self.n = n
        self.amps = amps


@dataclass(frozen=True)
class PauliOutcome:
    """One Bell-measurement outcome: a Pauli string and its probability."""

    pauli: str
    probability: float


def build_graph_state(graph: Graph) -> Statevector:
    """Uniform-superposition state with a (-1) phase per present edge pair."""
    n = graph.n
    if n > MAX_STATE_QUBITS:
        raise ScaleError(f"statevector capped at {MAX_STATE_QUBITS} qubits")
    idx = np.arange(1 << n, dtype=np.uint64)
    phase = np.zeros(1 << n, dtype=np.int8)
    for u, v in graph.edges:
        phase ^= ((idx >> np.uint64(u)) & (idx >> np.uint64(v)) & np.uint64(1)).astype(
            np.int8
        )
    amps = np.where(phase, -1.0, 1.0) / np.sqrt(1 << n)
    return Statevector(n, amps)


def pauli_string(x_mask: int, z_mask: int, n: int) -> str:
    """Pauli string for the X/Z support pair; qubit v is character v."""
    chars = []
    for v in range(n):
        x, z = (x_mask >> v) & 1, (z_mask >> v) & 1
        chars.append("IXZY"[x + 2 * z])
    return "".join(chars)


def apply_pauli_string(psi: Statevector, pauli: str) -> Statevector:
    """Apply a tensor product of I/X/Y/Z (with the true Y phases)."""
    if len(pauli) != psi.n:
        raise ValueError("pauli length must equal qubit count")
    x_mask = z_mask = 0
    for v, ch in enumerate(pauli):
        if ch in "XY":
            x_mask |= 1 << v
        if ch in "ZY":
            z_mask |= 1 << v
    y_count = pauli.count("Y")
    idx = np.arange(1 << psi.n, dtype=np.uint64)
    flipped = idx ^ np.uint64(x_mask)
    # X^a Z^z acting on |x> gives (-1)^(z.x) |x ^ a>; Y adds a phase i per site.
    signs = 1.0 - 2.0 * _bit_parity(idx & np.uint64(z_mask))
    amps = np.empty_like(psi.amps)
    amps[flipped] = (1j**y_count) * signs * psi.amps
    return Statevector(psi.n, amps)


def bell_distribution(psi: Statevector) -> list[PauliOutcome]:
    """Exact outcome distribution of a transversal Bell measurement on two copies.

    The outcome labelled by Pauli string s has probability
    |<psi| sigma_s |psi*>|^2 / 2^n; the list covers all 4^n strings and sums
    to 1.
    """
    n = psi.n
    if n > MAX_BELL_QUBITS:
        raise ScaleError(f"bell_distribution capped at {MAX_BELL_QUBITS} qubits")
    idx = np.arange(1 << n, dtype=np.uint64)
    bra = np.conj(psi.amps)
    # signs[z, j] = (-1)^(z . j); row z, read at the flipped index i ^ x, is
    # the Z part of sigma acting on |i>
    signs = 1.0 - 2.0 * _bit_parity(idx[:, None] & idx[None, :])
    out = []
    scale = 1.0 / (1 << n)
    for x_mask in range(1 << n):
        flipped = (idx ^ np.uint64(x_mask)).astype(np.int64)
        terms = signs[:, flipped] * (bra * bra[flipped])
        for z_mask in range(1 << n):
            # one 1-d sum per row keeps np.sum's pairwise order, so outcomes
            # of probability 0 come out exactly 0
            p = float(np.abs(terms[z_mask].sum()) ** 2) * scale
            out.append(PauliOutcome(pauli_string(x_mask, z_mask, n), p))
    return out


def _hadamard_all(amps: np.ndarray, n: int) -> np.ndarray:
    """Apply a Hadamard on every qubit via in-place butterflies."""
    v = amps.reshape([2] * n) if n else amps.copy()
    v = v.astype(np.complex128, copy=True)
    for q in range(n):
        v = np.moveaxis(v, q, 0)
        a, b = v[0].copy(), v[1].copy()
        v[0] = (a + b) / np.sqrt(2.0)
        v[1] = (a - b) / np.sqrt(2.0)
        v = np.moveaxis(v, 0, q)
    return v.reshape(-1)


def fourier_sampling_distribution(truth: Sequence[int], n: int) -> np.ndarray:
    """Outcome distribution of one Fourier-sampling round on f.

    Route: prepare the uniform superposition, apply the (-1)^f phase, apply
    Hadamards, read the squared amplitudes.  Entry y is the squared
    normalized Walsh coefficient of (-1)^f at y.
    """
    if n > MAX_STATE_QUBITS:
        raise ScaleError(f"statevector capped at {MAX_STATE_QUBITS} qubits")
    table = np.asarray(truth, dtype=np.int8)
    if table.shape != (1 << n,) or not np.isin(table, (0, 1)).all():
        raise ValueError("truth table must be 0/1 of length 2**n")
    amps = np.where(table, -1.0, 1.0).astype(np.complex128) / np.sqrt(1 << n)
    probs = np.abs(_hadamard_all(amps, n)) ** 2
    return probs


# -- exact-phase recovery ------------------------------------------------------

@dataclass(frozen=True)
class BVResult:
    """Outcome of one run of the exact-phase recovery routine."""

    ok: bool
    recovered: frozenset[int] | None
    fail_flag: bool


def relevant_variables(truth: Sequence[int], n: int) -> list[int]:
    """Variables on which f genuinely depends."""
    table = np.asarray(truth, dtype=np.int8)
    idx = np.arange(1 << n)
    return [v for v in range(n) if np.any(table != table[idx ^ (1 << v)])]


def is_monotone(truth: Sequence[int], n: int) -> bool:
    """True iff setting any one bit never lowers f."""
    table = np.asarray(truth, dtype=np.int8)
    idx = np.arange(1 << n)
    return all(np.all(table <= table[idx | (1 << v)]) for v in range(n))


def bv_with_size_oracle(
    truth: Sequence[int],
    n: int,
    rng: np.random.Generator,
    delta: float | Sequence[float] = 0.0,
) -> BVResult:
    """Recover the relevant-variable set of a monotone junta in one round.

    Uses the exact intersection-size phase state: amplitudes proportional to
    (-1)^{|S ∩ T|} over all T, Hadamard-transformed back to the indicator of
    S.  ``delta`` models a per-subset damping of the good branch: the flag
    register then fails with probability 1 - mean((1-delta)^2), and the
    conditional output may differ from S.
    """
    if n > MAX_BV_QUBITS:
        raise ScaleError(f"exact-phase recovery capped at {MAX_BV_QUBITS} qubits")
    table = np.asarray(truth, dtype=np.int8)
    if table.shape != (1 << n,):
        raise ValueError("truth table must have length 2**n")
    if not is_monotone(table, n):
        raise ValueError("truth table is not monotone")
    s_mask = sum(1 << v for v in relevant_variables(table, n))

    damp = np.asarray(delta, dtype=np.float64)
    if damp.ndim == 0:
        damp = np.full(1 << n, float(damp))
    if damp.shape != (1 << n,) or np.any(damp < 0) or np.any(damp >= 1):
        raise ValueError("delta must be scalar or per-subset values in [0, 1)")

    good = 1.0 - damp
    p_flag_ok = float(np.mean(good**2))
    if rng.random() >= p_flag_ok:
        return BVResult(ok=False, recovered=None, fail_flag=True)

    idx = np.arange(1 << n, dtype=np.uint64)
    vec = good * (1.0 - 2.0 * _bit_parity(idx & np.uint64(s_mask)))
    probs = np.abs(_hadamard_all(vec / np.linalg.norm(vec), n)) ** 2
    outcome = int(rng.choice(1 << n, p=probs / probs.sum()))
    support = frozenset(v for v in range(n) if (outcome >> v) & 1)
    return BVResult(ok=outcome == s_mask, recovered=support, fail_flag=False)
