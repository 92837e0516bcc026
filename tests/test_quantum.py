"""Statevector simulators vs direct enumeration and matrix references."""

from __future__ import annotations

import numpy as np
import pytest

from gqlab.errors import ScaleError
from gqlab.graphs import Graph, generate
from statevector import (
    MAX_BELL_QUBITS,
    Statevector,
    apply_pauli_string,
    bell_distribution,
    build_graph_state,
    bv_with_size_oracle,
    fourier_sampling_distribution,
    is_monotone,
    pauli_string,
    relevant_variables,
)

rng = np.random.default_rng(99)

PAULI_MATS = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def random_state(n: int) -> Statevector:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return Statevector(n, v / np.linalg.norm(v))


def kron_pauli(pauli: str) -> np.ndarray:
    # qubit v is bit v of the index, so qubit 0 is the *last* kron factor
    out = np.eye(1)
    for ch in reversed(pauli):
        out = np.kron(out, PAULI_MATS[ch])
    return out


class TestGraphState:
    def test_single_edge_amplitudes(self):
        psi = build_graph_state(Graph(2, [(0, 1)]))
        np.testing.assert_allclose(psi.amps, np.array([1, 1, 1, -1]) / 2)

    def test_amplitude_magnitudes_uniform(self):
        for _ in range(10):
            g = generate("fixed_edge_count", {"n": 5, "m": int(rng.integers(0, 10))}, rng)
            psi = build_graph_state(g)
            np.testing.assert_allclose(np.abs(psi.amps), 2 ** -2.5)

    def test_stabilizer_eigenstate(self):
        for _ in range(10):
            g = generate("fixed_edge_count", {"n": 5, "m": 6}, rng)
            psi = build_graph_state(g)
            for v in range(g.n):
                chars = ["I"] * g.n
                chars[v] = "X"
                for w in g.neighbors(v):
                    chars[w] = "Z"
                fixed = apply_pauli_string(psi, "".join(chars))
                np.testing.assert_allclose(fixed.amps, psi.amps, atol=1e-12)

    def test_cap(self):
        with pytest.raises(ScaleError):
            build_graph_state(Graph(17, []))


class TestApplyPauli:
    def test_matches_kron_matrix(self):
        for pauli in ["IX", "ZY", "YX", "XZ", "YY", "IZ"]:
            psi = random_state(2)
            got = apply_pauli_string(psi, pauli)
            want = kron_pauli(pauli) @ psi.amps
            np.testing.assert_allclose(got.amps, want, atol=1e-12)

    def test_pauli_string_layout(self):
        assert pauli_string(0b01, 0b10, 2) == "XZ"
        assert pauli_string(0b11, 0b10, 2) == "XY"


class TestBellDistribution:
    def test_single_edge_support(self):
        dist = bell_distribution(build_graph_state(Graph(2, [(0, 1)])))
        probs = {o.pauli: o.probability for o in dist}
        assert abs(sum(probs.values()) - 1) < 1e-9
        for s in ("II", "XZ", "ZX", "YY"):
            assert abs(probs[s] - 0.25) < 1e-12
        assert all(
            p < 1e-12 for s, p in probs.items() if s not in ("II", "XZ", "ZX", "YY")
        )

    def test_graph_states_are_uniform_over_2n_strings(self):
        for _ in range(5):
            g = generate("fixed_edge_count", {"n": 4, "m": int(rng.integers(0, 7))}, rng)
            dist = bell_distribution(build_graph_state(g))
            support = [o for o in dist if o.probability > 1e-12]
            assert len(support) == 2**4
            for o in support:
                assert abs(o.probability - 2**-4) < 1e-12

    @staticmethod
    def per_outcome_reference(psi: Statevector) -> list[tuple[str, float]]:
        # one sign vector and one sum per (x, z) outcome
        n = psi.n
        idx = np.arange(1 << n)
        bra = np.conj(psi.amps)
        out = []
        for x in range(1 << n):
            permuted = bra[idx ^ x]
            for z in range(1 << n):
                parity = np.array([bin((i ^ x) & z).count("1") & 1 for i in idx])
                inner = np.sum(bra * (1.0 - 2.0 * parity) * permuted)
                out.append((pauli_string(x, z, n), float(np.abs(inner) ** 2) / (1 << n)))
        return out

    def test_matches_per_outcome_reference(self):
        # graph states give exactly the reference floats, so the zero-probability
        # outcomes stay exactly 0; a random state agrees to rounding
        for n, m in [(1, 0), (2, 1), (3, 1), (3, 3), (5, 4), (6, 7)]:
            psi = build_graph_state(generate("fixed_edge_count", {"n": n, "m": m}, rng))
            got = [(o.pauli, o.probability) for o in bell_distribution(psi)]
            assert got == self.per_outcome_reference(psi)
        psi = random_state(4)
        want = self.per_outcome_reference(psi)
        got = bell_distribution(psi)
        assert [o.pauli for o in got] == [p for p, _ in want]
        np.testing.assert_allclose([o.probability for o in got], [p for _, p in want], atol=1e-15)

    def test_random_state_sums_to_one(self):
        dist = bell_distribution(random_state(3))
        assert abs(sum(o.probability for o in dist) - 1) < 1e-9

    def test_cap(self):
        with pytest.raises(ScaleError):
            bell_distribution(
                Statevector(
                    MAX_BELL_QUBITS + 1,
                    np.ones(2 ** (MAX_BELL_QUBITS + 1))
                    / np.sqrt(2 ** (MAX_BELL_QUBITS + 1)),
                )
            )


def direct_walsh_squared(truth: list[int], n: int) -> np.ndarray:
    """Reference: double enumeration of the normalized Walsh coefficients."""
    out = np.zeros(1 << n)
    for y in range(1 << n):
        acc = 0.0
        for x in range(1 << n):
            sign = (-1) ** (truth[x] + bin(x & y).count("1"))
            acc += sign
        out[y] = (acc / (1 << n)) ** 2
    return out


class TestFourierSamplingDistribution:
    def test_xor_concentrates_on_its_support(self):
        truth = [bin(x).count("1") % 2 for x in range(4)]
        probs = fourier_sampling_distribution(truth, 2)
        np.testing.assert_allclose(probs, [0, 0, 0, 1], atol=1e-12)

    def test_constant_function(self):
        probs = fourier_sampling_distribution([0] * 8, 3)
        np.testing.assert_allclose(probs, [1] + [0] * 7, atol=1e-12)

    def test_matches_direct_enumeration(self):
        for _ in range(10):
            truth = [int(b) for b in rng.integers(0, 2, size=8)]
            probs = fourier_sampling_distribution(truth, 3)
            np.testing.assert_allclose(probs, direct_walsh_squared(truth, 3), atol=1e-12)
            assert abs(probs.sum() - 1) < 1e-9


def or_junta_truth(n: int, support: frozenset[int]) -> list[int]:
    return [int(any((x >> v) & 1 for v in support)) for x in range(1 << n)]


class TestSizeOracleRecovery:
    def test_monotonicity_helpers(self):
        assert is_monotone(or_junta_truth(4, frozenset({1, 3})), 4)
        xor = [bin(x).count("1") % 2 for x in range(16)]
        assert not is_monotone(xor, 4)
        assert relevant_variables(or_junta_truth(5, frozenset({0, 4})), 5) == [0, 4]

    def test_exact_mode_recovers_with_certainty(self):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            size = int(rng.integers(0, n + 1))
            support = frozenset(
                int(v) for v in rng.choice(n, size=size, replace=False)
            )
            res = bv_with_size_oracle(or_junta_truth(n, support), n, rng)
            assert res.ok and not res.fail_flag
            assert res.recovered == support

    def test_non_monotone_rejected(self):
        xor = [bin(x).count("1") % 2 for x in range(16)]
        with pytest.raises(ValueError):
            bv_with_size_oracle(xor, 4, rng)

    def test_size_length_and_delta_refused(self):
        with pytest.raises(ScaleError):
            bv_with_size_oracle([0] * (1 << 15), 15, rng)
        for table, delta in (([0] * 8, 0.0), ([0] * 16, -0.1), ([0] * 16, 1.0), ([0] * 16, [0.0] * 8)):
            with pytest.raises(ValueError, match="length|delta"):
                bv_with_size_oracle(table, 4, rng, delta=delta)

    def test_constant_damping_failure_rate(self):
        # flag fails with rate 1 - (1-d)^2 = 2d - d^2; conditional output is
        # still exact for constant damping, so that is the whole failure rate.
        n, d, trials = 6, 0.1, 10_000
        truth = or_junta_truth(n, frozenset({0, 2, 5}))
        fails = flags = 0
        for _ in range(trials):
            res = bv_with_size_oracle(truth, n, rng, delta=d)
            fails += not res.ok
            flags += res.fail_flag
        bound = 2 * d - d * d + d * d
        sigma = np.sqrt(bound * (1 - bound) / trials)
        assert fails / trials <= bound + 3 * sigma
        assert abs(flags / trials - (2 * d - d * d)) < 0.02

    def test_nonuniform_damping_can_corrupt_output(self):
        # damping only subsets that intersect S biases the conditional state
        n = 4
        truth = or_junta_truth(n, frozenset({1}))
        damp = np.array([0.9 if (t >> 1) & 1 else 0.0 for t in range(1 << n)])
        results = [
            bv_with_size_oracle(truth, n, rng, delta=damp) for _ in range(300)
        ]
        wrong = [r for r in results if not r.fail_flag and not r.ok]
        assert wrong, "biased damping should sometimes corrupt the outcome"
