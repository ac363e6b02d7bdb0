"""Unit tests for the MemoryBudget admission-control ledger."""

import pytest

from repro.utils.memory import (
    BUDGET_ENV_VAR,
    MemoryBudget,
    MemoryBudgetError,
    adjacency_set_bytes,
    csr_bytes,
    edge_age_bytes,
)

MB = 1 << 20


class TestResolve:
    def test_explicit_budget_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "999")
        budget = MemoryBudget.resolve(7)
        assert budget.budget_bytes == 7 * MB

    def test_environment_budget(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "42")
        budget = MemoryBudget.resolve()
        assert budget.budget_bytes == 42 * MB

    def test_unlimited_by_default(self, monkeypatch):
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        budget = MemoryBudget.resolve()
        assert budget.unlimited
        assert budget.budget_bytes is None
        assert budget.remaining_bytes() is None

    def test_blank_environment_is_unlimited(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "  ")
        assert MemoryBudget.resolve().unlimited

    def test_malformed_environment_budget_names_the_variable(self,
                                                              monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "lots")
        with pytest.raises(ValueError,
                           match="REPRO_MEMORY_BUDGET_MB='lots'"):
            MemoryBudget.resolve()

    @pytest.mark.parametrize("bad", [0, -1])
    def test_budget_must_be_at_least_one_megabyte(self, bad):
        with pytest.raises(ValueError):
            MemoryBudget(bad)


class TestAdmission:
    def test_unlimited_admits_everything(self):
        MemoryBudget(None).admit("anything", 1 << 60)

    def test_admit_within_budget(self):
        MemoryBudget(10).admit("stage", 10 * MB)

    def test_admit_over_budget_raises_structured_error(self):
        budget = MemoryBudget(10)
        with pytest.raises(MemoryBudgetError) as info:
            budget.admit("chung_lu.generate", 11 * MB)
        error = info.value
        assert error.code == "over_memory"
        assert error.stage == "chung_lu.generate"
        assert error.required_bytes == 11 * MB
        assert error.available_bytes == 10 * MB
        assert error.budget_bytes == 10 * MB
        assert "chung_lu.generate" in str(error)

    def test_charge_reduces_remaining_until_release(self):
        budget = MemoryBudget(10)
        budget.charge("a", 4 * MB)
        assert budget.charged_bytes == 4 * MB
        assert budget.remaining_bytes() == 6 * MB
        with pytest.raises(MemoryBudgetError):
            budget.admit("b", 7 * MB)
        budget.release("a")
        budget.admit("b", 7 * MB)

    def test_reserved_context_manager_releases_on_exit(self):
        budget = MemoryBudget(10)
        with budget.reserved("stage", 8 * MB):
            assert budget.remaining_bytes() == 2 * MB
        assert budget.remaining_bytes() == 10 * MB

    def test_reserved_releases_on_error(self):
        budget = MemoryBudget(10)
        with pytest.raises(RuntimeError, match="boom"):
            with budget.reserved("stage", 8 * MB):
                raise RuntimeError("boom")
        assert budget.charged_bytes == 0


class TestShardRows:
    def test_unlimited_returns_cap(self):
        assert MemoryBudget(None).shard_rows(96, cap=12345) == 12345

    def test_unlimited_without_cap_is_effectively_unbounded(self):
        assert MemoryBudget(None).shard_rows(96) >= (1 << 60)

    def test_bounded_divides_remaining_bytes(self):
        budget = MemoryBudget(1)  # 1 MiB
        assert budget.shard_rows(1024) == 1024

    def test_never_below_minimum(self):
        budget = MemoryBudget(1)
        budget.charge("resident", 1 * MB)
        assert budget.shard_rows(1024, minimum=2048) == 2048

    def test_cap_clamps(self):
        assert MemoryBudget(1024).shard_rows(8, cap=10) == 10


class TestEstimators:
    def test_csr_bytes_formula(self):
        assert csr_bytes(10, 20) == 11 * 8 + 2 * 20 * 8
        assert csr_bytes(10, 20, index_itemsize=4) == 11 * 8 + 2 * 20 * 4

    def test_adjacency_set_bytes_scales_with_nodes_and_edges(self):
        assert adjacency_set_bytes(0, 0) == 0
        assert adjacency_set_bytes(100, 0) > 0
        assert adjacency_set_bytes(100, 1000) > adjacency_set_bytes(100, 10)

    def test_edge_age_bytes_scales_with_edges(self):
        assert edge_age_bytes(0) == 0
        assert edge_age_bytes(1000) == 1000 * edge_age_bytes(1)
