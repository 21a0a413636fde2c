"""Policy registry: registration, lookup errors, entry-point loading."""

import pytest

from repro.errors import PolicyError
from repro.policies import (LEND_POLICIES, OFFLOAD_POLICIES,
                            REALLOCATION_POLICIES, OffloadPolicy,
                            PolicyRegistry, available_policies,
                            load_entry_point_policies)
from repro.policies.registry import register_entry_points


class _Dummy(OffloadPolicy):
    name = "dummy"

    def choose_worker(self, task, view):
        """Always keep at home."""
        from repro.policies import KEEP
        return KEEP


class TestPolicyRegistry:
    def test_register_and_create(self):
        registry = PolicyRegistry("offload")
        registry.register(_Dummy)
        assert "dummy" in registry
        assert isinstance(registry.create("dummy"), _Dummy)
        assert registry.get("dummy") is _Dummy

    def test_register_is_decorator_friendly(self):
        registry = PolicyRegistry("offload")
        assert registry.register(_Dummy) is _Dummy

    def test_duplicate_name_rejected(self):
        registry = PolicyRegistry("offload")
        registry.register(_Dummy)
        with pytest.raises(PolicyError, match="already registered"):
            registry.register(_Dummy)

    def test_unnamed_class_rejected(self):
        registry = PolicyRegistry("offload")

        class Nameless(_Dummy):
            name = ""

        with pytest.raises(PolicyError, match="name"):
            registry.register(Nameless)

    def test_unknown_name_lists_registered_in_one_line(self):
        with pytest.raises(PolicyError) as excinfo:
            OFFLOAD_POLICIES.get("nope")
        message = str(excinfo.value)
        assert "\n" not in message
        for name in OFFLOAD_POLICIES.names():
            assert name in message

    def test_names_sorted(self):
        assert OFFLOAD_POLICIES.names() == tuple(
            sorted(OFFLOAD_POLICIES.names()))

    def test_iteration_and_len(self):
        registry = PolicyRegistry("offload")
        registry.register(_Dummy)
        assert list(registry) == ["dummy"]
        assert len(registry) == 1


class TestBuiltinRegistries:
    def test_defaults_registered(self):
        assert "tentative" in OFFLOAD_POLICIES
        assert "eager" in LEND_POLICIES
        assert "global" in REALLOCATION_POLICIES
        assert "local" in REALLOCATION_POLICIES

    def test_two_new_offload_policies(self):
        assert "locality" in OFFLOAD_POLICIES
        assert "work-sharing" in OFFLOAD_POLICIES

    def test_available_policies_covers_every_kind(self):
        catalogue = available_policies()
        assert set(catalogue) == {"offload", "lend", "reallocation"}
        assert all(names for names in catalogue.values())


class TestEntryPoints:
    def test_absent_group_loads_nothing(self):
        registry = PolicyRegistry("offload")
        assert register_entry_points(registry,
                                     "repro.no_such_policies") == 0

    def test_loader_over_all_registries_is_safe(self):
        before = available_policies()
        assert load_entry_point_policies() == 0
        assert available_policies() == before
