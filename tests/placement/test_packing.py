"""Tests for the cross-tenant host pool (repro.placement.packing)."""

from __future__ import annotations

import pytest

from repro.core import Host
from repro.errors import DeploymentError
from repro.placement import HostPool


def pool(n=3, cores=8):
    return HostPool([Host(f"s{i}", cores=cores) for i in range(n)])


class TestReserve:
    def test_maps_local_hosts_to_distinct_shared_hosts(self):
        p = pool()
        mapping = p.reserve("t0", {"a": 2, "b": 3, "c": 1})
        assert mapping is not None
        assert sorted(mapping) == ["a", "b", "c"]
        assert len(set(mapping.values())) == 3  # distinctness
        assert p.used_cores == 6

    def test_worst_fit_spreads_load(self):
        p = pool(n=2, cores=8)
        p.reserve("t0", {"a": 4})
        mapping = p.reserve("t1", {"a": 2})
        # s0 has 4 free, s1 has 8 free: worst-fit picks the emptier s1.
        assert mapping == {"a": "s1"}

    def test_ties_break_by_name(self):
        p = pool(n=3, cores=8)
        assert p.reserve("t0", {"a": 1}) == {"a": "s0"}

    def test_all_or_nothing_on_capacity_miss(self):
        p = pool(n=2, cores=4)
        # Two local hosts fit, three cannot map to distinct shared hosts.
        assert p.reserve("t0", {"a": 1, "b": 1, "c": 1}) is None
        assert p.used_cores == 0
        assert p.tenants == ()

    def test_rejects_when_cores_run_out(self):
        p = pool(n=2, cores=4)
        assert p.reserve("t0", {"a": 4, "b": 4}) is not None
        assert p.reserve("t1", {"a": 1}) is None

    def test_distinctness_can_reject_despite_free_cores(self):
        p = pool(n=2, cores=8)
        # 16 free cores, but three local hosts need three distinct
        # shared hosts.
        assert p.reserve("t0", {"a": 2, "b": 2, "c": 2}) is None

    def test_double_reservation_is_an_error(self):
        p = pool()
        p.reserve("t0", {"a": 1})
        with pytest.raises(DeploymentError, match="already holds"):
            p.reserve("t0", {"a": 1})

    def test_invalid_requests_rejected(self):
        p = pool()
        with pytest.raises(DeploymentError, match="request cores"):
            p.reserve("t0", {})
        with pytest.raises(DeploymentError, match=">= 1 core"):
            p.reserve("t0", {"a": 0})

    def test_duplicate_host_names_rejected(self):
        with pytest.raises(DeploymentError, match="duplicate host"):
            HostPool([Host("s0", cores=2), Host("s0", cores=2)])


class TestRelease:
    def test_release_returns_all_cores(self):
        p = pool()
        p.reserve("t0", {"a": 3, "b": 2})
        p.reserve("t1", {"a": 4})
        p.release("t0")
        assert p.used_cores == 4
        assert p.tenants == ("t1",)
        # The freed cores are reusable.
        assert p.reserve("t2", {"a": 8}) is not None

    def test_release_unknown_tenant_is_an_error(self):
        with pytest.raises(DeploymentError, match="no reservation"):
            pool().release("ghost")


class TestAccounting:
    def test_isolation_ledger_tracks_tenant_cores(self):
        p = pool(n=2, cores=8)
        p.reserve("t0", {"a": 3})
        p.reserve("t1", {"a": 2, "b": 2})
        occupancy = p.occupancy()
        held = {
            host["host"]: host["tenants"] for host in occupancy["hosts"]
        }
        assert sum(c for tenants in held.values() for c in tenants.values()) == 7
        assert occupancy["used_cores"] == 7
        assert occupancy["free_cores"] == 9
        assert occupancy["tenants"] == 2

    def test_occupancy_is_canonical(self):
        import json

        p = pool()
        p.reserve("t1", {"x": 2})
        p.reserve("t0", {"x": 1})
        a = json.dumps(p.occupancy(), sort_keys=True)
        q = pool()
        q.reserve("t1", {"x": 2})
        q.reserve("t0", {"x": 1})
        assert json.dumps(q.occupancy(), sort_keys=True) == a
        occupancy = p.occupancy()
        assert sorted(occupancy) == [
            "free_cores", "hosts", "tenants", "total_cores", "used_cores",
            "utilization",
        ]
        assert sorted(occupancy["hosts"][0]) == [
            "cores", "free", "host", "tenants", "used",
        ]
