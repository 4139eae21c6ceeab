import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from readout_tradeoff.gates import (
    Compilation,
    GateNoise,
    OutcomeDist,
    _wiring_dist,
    cascade_dist,
    cascade_wiring,
    compiled_dist,
    flat_dist,
    flat_wiring,
    general_t_pair,
    outcome_moments,
    point_outcome,
    validate_wiring,
)
from readout_tradeoff.dist import DomainError
from readout_tradeoff.montecarlo import sample_gate_outcomes
from tests._reference import cascade_conv_ref, cascade_explicit, enumerate_gate_patterns, flat_ref

P_GRID = [0.0, 0.001, 0.01, 0.25, 0.5, 0.9, 1.0]
# Register sizes for the exact references: every small size, plus long
# laws where rounding accumulates along the chains.
N_GRID = [*range(1, 13), 16, 32, 64]


def _max_diff(dist: OutcomeDist, ref) -> float:
    return max(abs(p - float(r)) for p, r in zip(dist.probs, ref))


class TestFlat:
    @pytest.mark.parametrize("n", N_GRID)
    @pytest.mark.parametrize("p", P_GRID)
    def test_matches_exact_closed_form(self, n, p):
        ref = flat_ref(n, Fraction(p).limit_denominator(10**9))
        got = flat_dist(n, GateNoise(p, Compilation.FLAT))
        assert _max_diff(got, ref) < 1e-15

    def test_single_qubit_always_nominal(self):
        d = flat_dist(1, GateNoise(0.7, Compilation.FLAT))
        assert d.probs[1] == 1.0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_one_short_of_full_is_impossible(self, n):
        assert flat_dist(n, GateNoise(0.3, Compilation.FLAT)).probs[n - 1] == 0.0

    def test_long_chain_matches_closed_form(self):
        # deeper than the interpreter's recursion limit
        n, p = 2000, 1e-3
        probs = flat_dist(n, GateNoise(p, Compilation.FLAT)).probs
        q = np.arange(n + 1)
        ref = np.where(q < n - 1, p * (1 - p) ** q, 0.0)
        ref[n] = (1 - p) ** (n - 1)
        assert probs[n - 1] == 0.0
        np.testing.assert_allclose(probs, ref, rtol=1e-13, atol=0.0)


class TestCascade:
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("p", P_GRID)
    def test_matches_hand_expanded_polynomials(self, n, p):
        ref = cascade_explicit(n, Fraction(p).limit_denominator(10**9))
        got = cascade_dist(n, GateNoise(p))
        assert _max_diff(got, ref) < 1e-15

    @pytest.mark.parametrize("n", N_GRID)
    @pytest.mark.parametrize("p", P_GRID)
    def test_matches_exact_split_reference(self, n, p):
        ref = cascade_conv_ref(n, Fraction(p).limit_denominator(10**9))
        got = cascade_dist(n, GateNoise(p))
        assert _max_diff(got, ref) < 1e-14

    @pytest.mark.parametrize("n", range(2, 9))
    def test_one_short_of_full_is_impossible(self, n):
        assert cascade_dist(n, GateNoise(0.3)).probs[n - 1] == 0.0

    def test_small_sizes_equal_flat(self):
        # halves of size <= 2 leave nothing for the split to decouple
        for n in (1, 2, 3):
            c = cascade_dist(n, GateNoise(0.2))
            f = flat_dist(n, GateNoise(0.2, Compilation.FLAT))
            np.testing.assert_allclose(c.probs, f.probs, atol=1e-16)

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("p", [0.001, 0.05, 0.25, 0.9])
    def test_majority_tail_never_below_flat(self, n, p):
        # the split confines a root failure's damage to one half
        half = (n + 1) // 2
        tail_c = cascade_dist(n, GateNoise(p)).probs[half:].sum()
        tail_f = flat_dist(n, GateNoise(p, Compilation.FLAT)).probs[half:].sum()
        assert tail_c >= tail_f - 1e-15


class TestEdgeCases:
    @pytest.mark.parametrize("compilation", list(Compilation))
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_perfect_gates_give_full_count(self, compilation, n):
        d = compiled_dist(n, GateNoise(0.0, compilation))
        assert d.probs[n] == 1.0

    @pytest.mark.parametrize("compilation", list(Compilation))
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_certain_failure_gives_zero_count(self, compilation, n):
        d = compiled_dist(n, GateNoise(1.0, compilation))
        assert d.probs[0] == 1.0

    @given(st.integers(1, 40), st.floats(min_value=0.0, max_value=1.0))
    def test_always_a_distribution(self, n, p):
        for compilation in Compilation:
            d = compiled_dist(n, GateNoise(p, compilation))
            assert np.all(d.probs >= 0.0)
            assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_full_success_mass_decreases_with_size(self):
        succ = [compiled_dist(n, GateNoise(0.05)).probs[n] for n in range(1, 10)]
        assert all(a > b for a, b in zip(succ, succ[1:]))

    def test_rejects_bad_probability(self):
        with pytest.raises(DomainError):
            GateNoise(1.5)
        with pytest.raises(DomainError):
            GateNoise(-0.1)

    def test_rejects_compilation_by_name(self):
        with pytest.raises(DomainError, match="^unknown compilation 'flat'$"):
            GateNoise(0.1, "flat")

    @pytest.mark.parametrize("law", [flat_dist, cascade_dist, compiled_dist])
    def test_integral_sizes_accepted(self, law):
        np.testing.assert_array_equal(law(3.0, GateNoise(0.1)).probs, law(3, GateNoise(0.1)).probs)
        np.testing.assert_array_equal(law(True, GateNoise(0.1)).probs, [0.0, 1.0])

    @pytest.mark.parametrize("law", [flat_dist, cascade_dist, compiled_dist])
    @pytest.mark.parametrize("n", [2.5, 0, -1, "3"])
    def test_rejects_bad_size(self, law, n):
        with pytest.raises(DomainError, match=f"^register size must be a positive integer, got {n}$"):
            law(n, GateNoise(0.1))


class TestEnumeration:
    """Brute force over each gate's fail/succeed pattern is ground truth."""

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("p", [0.001, 0.01, 0.25])
    def test_flat_wiring(self, n, p):
        got = enumerate_gate_patterns(n, flat_wiring(n), p)
        ref = flat_dist(n, GateNoise(p, Compilation.FLAT))
        assert 0.5 * np.abs(got.probs - ref.probs).sum() < 1e-14

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("p", [0.001, 0.01, 0.25])
    def test_cascade_wiring(self, n, p):
        got = enumerate_gate_patterns(n, cascade_wiring(n), p)
        ref = cascade_dist(n, GateNoise(p))
        assert 0.5 * np.abs(got.probs - ref.probs).sum() < 1e-14

    def test_random_forests(self):
        # causally ordered forests over up to 11 qubits, idle qubits included
        rng = np.random.default_rng(20260)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            targets = rng.permutation(np.arange(1, n))[: rng.integers(0, n)].tolist()
            wiring, in_play = [], [0]
            for t in targets:
                wiring.append((in_play[rng.integers(len(in_play))], t))
                in_play.append(t)
            for p in (0.0, 0.013, 0.3, 1.0, float(rng.random())):
                got = _wiring_dist(n, wiring, p).probs
                ref = enumerate_gate_patterns(n, wiring, p).probs
                assert np.abs(got - ref).max() <= 1e-14, (n, wiring, p)


class TestWiring:
    @pytest.mark.parametrize("n", range(1, 12))
    def test_standard_wirings_validate(self, n):
        validate_wiring(n, flat_wiring(n))
        validate_wiring(n, cascade_wiring(n))

    @pytest.mark.parametrize("n", range(2, 12))
    def test_standard_wirings_cover_all_qubits(self, n):
        for wiring in (flat_wiring(n), cascade_wiring(n)):
            assert len(wiring) == n - 1
            targets = {t for _, t in wiring}
            assert targets == set(range(1, n))

    def test_rejects_self_gate(self):
        with pytest.raises(DomainError):
            validate_wiring(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            validate_wiring(2, [(0, 2)])

    def test_rejects_retargeted_qubit(self):
        with pytest.raises(DomainError):
            validate_wiring(3, [(0, 1), (0, 1)])

    def test_rejects_control_never_entangled(self):
        # qubit 2 acts as control before anything links it to the root
        with pytest.raises(DomainError):
            validate_wiring(3, [(2, 1), (0, 2)])

    @pytest.mark.parametrize("wiring", [[(0,)], [(0, 1, 2)], [("0", "1")], [(0, 1.5)], [(0, 1.0)]])
    def test_rejects_malformed_gate(self, wiring):
        message = f"^gate 0 must be a pair of qubit indices, got {re.escape(repr(wiring[0]))}$"
        for check in (
            lambda: validate_wiring(3, wiring),
            lambda: _wiring_dist(3, wiring, 0.1),
            lambda: sample_gate_outcomes(wiring, 0.1, 10, 0),
        ):
            with pytest.raises(DomainError, match=message):
                check()

    @pytest.mark.parametrize("wiring", [None, 5])
    def test_rejects_non_iterable_wiring(self, wiring):
        message = f"^wiring must be a sequence of gates, got {wiring}$"
        for check in (
            lambda: validate_wiring(3, wiring),
            lambda: _wiring_dist(3, wiring, 0.1),
            lambda: sample_gate_outcomes(wiring, 0.1, 10, 0),
        ):
            with pytest.raises(DomainError, match=message):
                check()

    def test_index_like_gates_become_plain_ints(self):
        gates = validate_wiring(3, [(0, True), (np.int64(1), 2)])
        assert gates == [(0, 1), (1, 2)]
        assert all(type(q) is int for gate in gates for q in gate)
        np.testing.assert_array_equal(
            _wiring_dist(3, [(0, True)], 0.1).probs, _wiring_dist(3, [(0, 1)], 0.1).probs
        )
        np.testing.assert_array_equal(
            sample_gate_outcomes([(0, True)], 0.1, 100, 0).probs,
            sample_gate_outcomes([(0, 1)], 0.1, 100, 0).probs,
        )


class TestOutcomeHelpers:
    def test_point_outcome(self):
        d = point_outcome(4, 2)
        assert d.probs[2] == 1.0 and d.probs.sum() == 1.0

    def test_outcome_moments(self):
        d = OutcomeDist(2, np.array([0.25, 0.5, 0.25]))
        mean, var = outcome_moments(d)
        assert mean == pytest.approx(1.0)
        assert var == pytest.approx(0.5)

    def test_general_t_pair_from_sequences(self):
        t0, t1 = general_t_pair(2, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        assert t0.probs[0] == 1.0 and t1.probs[2] == 1.0

    def test_general_t_pair_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            general_t_pair(3, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])

    def test_outcome_dist_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            OutcomeDist(1, np.array([0.7, 0.7]))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: OutcomeDist(1, [1.5, -0.5]), "probs must be finite and non-negative"),
            (lambda: point_outcome(3, 4), "outcome 4 outside 0..3"),
            (
                lambda: general_t_pair(3, point_outcome(3, 3), point_outcome(2, 2)),
                "outcome law is for 2 qubits, expected 3",
            ),
        ],
        ids=["negative-prob", "outcome-past-n", "law-for-other-n"],
    )
    def test_rejects_malformed_outcome(self, build, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            build()
