"""Tests of early-exit settling.

Two properties anchor the suite: a run must stay bit-for-bit identical
whether or not early exit is armed while no member has settled
(early-exit with an unreachable tolerance exercises the freeze-out code
without ever freezing anyone), and freeze-out must stop settled members
at the state the full budget reaches.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import (
    CircuitSimulator,
    IntegrationConfig,
    RealValuedHamiltonian,
    symmetrize_coupling,
)
from repro.core.operators import CouplingOperator
from repro.faults.resilience import DivergenceError


def _system(n=6, seed=0):
    rng = np.random.default_rng(seed)
    J = symmetrize_coupling(rng.normal(size=(n, n)) * 0.4)
    h = -(np.abs(J).sum(axis=1) + 1.0)
    return RealValuedHamiltonian(J, h)


def _drift(ham):
    return lambda sigma: ham.J @ sigma + ham.h * sigma


def _batch_drift(ham):
    return lambda states: states @ ham.J + ham.h * states


class TestEarlyExitConfigValidation:
    def test_rejects_nonpositive_settle_tolerance(self):
        with pytest.raises(ValueError, match="settle_tolerance"):
            IntegrationConfig(early_exit=True, settle_tolerance=0.0)

    def test_rejects_bad_settle_check_every(self):
        with pytest.raises(ValueError, match="settle_check_every"):
            IntegrationConfig(early_exit=True, settle_check_every=0)

    def test_rejects_bad_settle_patience(self):
        with pytest.raises(ValueError, match="settle_patience"):
            IntegrationConfig(early_exit=True, settle_patience=0)


class TestFixedPathBitwisePreserved:
    """Arming early-exit with an unreachable tolerance must not change a
    single output bit versus the plain fixed-step path."""

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_unreachable_tolerance_is_bitwise_identical(self, method, noise):
        ham = _system(seed=50)
        clamp_index = np.asarray([1, 4])
        clamp_value = np.asarray([[0.2, -0.8], [0.9, 0.0]])
        sigma0 = np.random.default_rng(51).uniform(-1, 1, size=(2, 6))
        fixed = CircuitSimulator(
            IntegrationConfig(dt=0.05, method=method, node_noise_std=noise),
            rng=np.random.default_rng(52),
        ).run_batch(_batch_drift(ham), sigma0, 5.0, clamp_index, clamp_value)
        armed = CircuitSimulator(
            IntegrationConfig(
                dt=0.05, method=method, node_noise_std=noise,
                early_exit=True, settle_tolerance=1e-300,
            ),
            rng=np.random.default_rng(52),
        ).run_batch(_batch_drift(ham), sigma0, 5.0, clamp_index, clamp_value)
        assert np.array_equal(fixed.final_states, armed.final_states)
        assert np.array_equal(fixed.times, armed.times)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_across_operator_backends_and_dtypes(self, backend, dtype):
        rng = np.random.default_rng(53)
        n = 16
        J = symmetrize_coupling(rng.normal(size=(n, n)) * 0.3)
        J[np.abs(J) < 0.2] = 0.0
        h = -(np.abs(J).sum(axis=1) + 1.0)
        operator = CouplingOperator(J, h, backend=backend, dtype=dtype)
        sigma0 = rng.uniform(-1, 1, size=(3, n))
        clamp_index = np.arange(4)
        clamp_value = sigma0[:, :4]
        fixed = CircuitSimulator(IntegrationConfig(dt=0.05)).run_batch(
            operator.drift, sigma0, 5.0, clamp_index, clamp_value
        )
        armed = CircuitSimulator(
            IntegrationConfig(dt=0.05, early_exit=True, settle_tolerance=1e-300)
        ).run_batch(operator.drift, sigma0, 5.0, clamp_index, clamp_value)
        assert np.array_equal(fixed.final_states, armed.final_states)


class TestEarlyExitSettling:
    def test_exits_before_budget_on_contracting_system(self):
        ham = _system(seed=60)
        clamp_index = np.asarray([0])
        clamp_value = np.asarray([[0.5], [-0.5], [0.1], [0.9]])
        sigma0 = np.random.default_rng(61).uniform(-1, 1, size=(4, 6))
        budget = 500.0
        fixed = CircuitSimulator(IntegrationConfig(dt=0.05)).run_batch(
            _batch_drift(ham), sigma0, budget, clamp_index, clamp_value
        )
        early = CircuitSimulator(
            IntegrationConfig(dt=0.05, early_exit=True, settle_tolerance=1e-10)
        ).run_batch(_batch_drift(ham), sigma0, budget, clamp_index, clamp_value)
        assert early.times[-1] < budget
        assert np.allclose(early.final_states, fixed.final_states, atol=1e-8)

    def test_frozen_members_stop_moving(self):
        """After a member freezes its state is carried forward verbatim;
        the recorded final state equals the state at freeze-out."""
        ham = _system(seed=62)
        early = CircuitSimulator(
            IntegrationConfig(
                dt=0.05, early_exit=True, settle_tolerance=1e-8,
                record_every=1,
            )
        ).run_batch(
            _batch_drift(ham),
            np.random.default_rng(63).uniform(-1, 1, size=(3, 6)),
            500.0,
        )
        # Every member's trailing window is constant to the tolerance.
        tail = early.states[-2:]
        assert np.max(np.abs(tail[1] - tail[0])) <= 1e-6

    def test_early_exit_counters_recorded(self):
        ham = _system(seed=64)
        with obs.metrics_enabled() as registry:
            CircuitSimulator(
                IntegrationConfig(dt=0.05, early_exit=True,
                                  settle_tolerance=1e-9)
            ).run_batch(
                _batch_drift(ham),
                np.random.default_rng(65).uniform(-1, 1, size=(4, 6)),
                500.0,
            )
            counters = registry.snapshot()["counters"]
        assert counters.get("circuit.frozen_members") == 4
        assert counters.get("circuit.early_exits") == 1
        # Freeze-out must have saved real member-step work.
        budget = counters["circuit.steps"] * counters["circuit.samples"]
        assert counters["circuit.member_steps"] < budget

    def test_rk4_exits_before_budget(self):
        ham = _system(seed=66)
        sigma0 = np.random.default_rng(67).uniform(-1, 1, size=(3, 6))
        fixed = CircuitSimulator(
            IntegrationConfig(dt=0.05, method="rk4")
        ).run_batch(_batch_drift(ham), sigma0, 500.0)
        early = CircuitSimulator(
            IntegrationConfig(
                dt=0.05, method="rk4", early_exit=True, settle_tolerance=1e-10
            )
        ).run_batch(_batch_drift(ham), sigma0, 500.0)
        assert early.times[-1] < 500.0
        assert np.allclose(early.final_states, fixed.final_states, atol=1e-8)

    def test_unsettled_run_counts_every_member_step(self):
        """Armed but never settling, every member is active on every step."""
        ham = _system(seed=68)
        with obs.metrics_enabled() as registry:
            CircuitSimulator(
                IntegrationConfig(
                    dt=0.05, early_exit=True, settle_tolerance=1e-300
                )
            ).run_batch(
                _batch_drift(ham),
                np.random.default_rng(69).uniform(-1, 1, size=(3, 6)),
                5.0,
            )
            counters = registry.snapshot()["counters"]
        assert counters["circuit.steps"] == 100
        assert counters["circuit.member_steps"] == 300
        assert "circuit.frozen_members" not in counters
        assert "circuit.early_exits" not in counters


class TestOneIntegrationLoop:
    """The single fixed-``dt`` loop: record cadence, counters and the
    divergence guard behave the same with and without early exit."""

    def test_fixed_run_spends_the_whole_budget(self):
        ham = _system(seed=70)
        with obs.metrics_enabled() as registry:
            trajectory = CircuitSimulator(
                IntegrationConfig(dt=0.05)
            ).run_batch(
                _batch_drift(ham),
                np.random.default_rng(71).uniform(-1, 1, size=(2, 6)),
                500.0,
            )
            counters = registry.snapshot()["counters"]
        assert trajectory.times[-1] == pytest.approx(500.0)
        assert counters["circuit.steps"] == 10_000
        assert "circuit.member_steps" not in counters
        assert "circuit.early_exits" not in counters

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_record_grid_ends_on_the_last_step(self, record_every):
        ham = _system(seed=72)
        trajectory = CircuitSimulator(
            IntegrationConfig(dt=0.05, record_every=record_every)
        ).run_batch(
            _batch_drift(ham),
            np.random.default_rng(73).uniform(-1, 1, size=(2, 6)),
            5.0,
        )
        steps = np.rint(trajectory.times / 0.05).astype(int)
        assert steps[0] == 0 and steps[-1] == 100
        assert np.all(steps[1:-1] % record_every == 0)
        assert len(trajectory.times) == 1 + 100 // record_every + (
            100 % record_every != 0
        )

    def test_early_exit_records_the_exit_frame_off_grid(self):
        """The exit frame is recorded even between ``record_every`` marks."""
        ham = _system(seed=74)
        trajectory = CircuitSimulator(
            IntegrationConfig(
                dt=0.05, record_every=7, early_exit=True,
                settle_tolerance=1e-8, settle_check_every=5,
            )
        ).run_batch(
            _batch_drift(ham),
            np.random.default_rng(75).uniform(-1, 1, size=(2, 6)),
            500.0,
        )
        steps = np.rint(trajectory.times / 0.05).astype(int)
        assert steps[-1] < 10_000
        assert steps[-1] % 5 == 0 and steps[-1] % 7 != 0
        assert np.all(steps[1:-1] % 7 == 0)

    def test_single_run_matches_batch_row(self):
        ham = _system(seed=76)
        config = IntegrationConfig(
            dt=0.05, early_exit=True, settle_tolerance=1e-9
        )
        sigma0 = np.random.default_rng(77).uniform(-1, 1, size=6)
        single = CircuitSimulator(config).run(_drift(ham), sigma0, 500.0)
        batch = CircuitSimulator(config).run_batch(
            _batch_drift(ham), sigma0[None, :], 500.0
        )
        assert single.times[-1] < 500.0
        assert np.array_equal(single.times, batch.times)
        assert np.allclose(single.states, batch.states[:, 0], atol=1e-12)

    @pytest.mark.parametrize("early_exit", [False, True])
    def test_divergence_guard_fires(self, early_exit):
        def poisoned(states):
            return np.full_like(states, np.nan)

        simulator = CircuitSimulator(
            IntegrationConfig(
                dt=0.05, rail=None, divergence_check_every=4,
                early_exit=early_exit,
            )
        )
        with pytest.raises(DivergenceError) as info:
            simulator.run_batch(poisoned, np.zeros((2, 6)), 5.0)
        assert info.value.step == 4
