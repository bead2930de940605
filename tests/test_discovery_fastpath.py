"""Discovery fast-path tests: constraint cache, heap indexes, snapshot ranking.

Covers the invalidation/consistency corners the fast path introduces:

* the constraint cache serves steady-state discovery without re-parsing,
  picks up a republished description on the very next query, matches a
  direct parse, and stays bounded;
* the heap's secondary indexes (sorted ids, name index) stay consistent
  across ``DataStore.transaction`` rollback;
* stale-sample (``max_age``) behaviour is unchanged under the single-
  snapshot ranking path;
* read-only views alias stored state while the copying accessors still
  isolate callers;
* the TimeHits target-list cache invalidates on NodeStatus publishes.
"""

import pytest

from repro.core import (
    ConstraintBindingResolver,
    LoadStatus,
    ServiceConstraint,
    TimeHits,
    attach_load_balancer,
)
import repro.core.service_constraint as constraint_module
from repro.core.constraints import Operator, parse_constraints
from repro.persistence import DataStore
from repro.persistence.nodestate import NodeSample
from repro.registry import RegistryConfig, RegistryServer
from repro.rim import Organization, Service, ServiceBinding
from repro.sim.nodestatus import nodestatus_uri
from repro.util.clock import ManualClock
from repro.util.ids import IdFactory

from conftest import HOSTS, publish_nodestatus, publish_service_with_bindings

ids = IdFactory(7)

CONSTRAINT_LS = "<constraint><cpuLoad>load ls 1.0</cpuLoad></constraint>"
CONSTRAINT_GR = "<constraint><cpuLoad>load gr 1.0</cpuLoad></constraint>"


def record(registry, host, load, *, now=None):
    updated = registry.clock.now() if now is None else now
    registry.node_state.record_sample(
        NodeSample(
            host=host, load=load, memory=1 << 32, swap_memory=1 << 32, updated=updated
        )
    )


@pytest.fixture
def balanced(sim_registry, transport, engine):
    lb = attach_load_balancer(
        sim_registry, transport, engine, start_monitor=False, max_sample_age=None
    )
    return sim_registry, lb


class TestConstraintCache:
    def test_steady_state_parses_once(self, balanced):
        registry, lb = balanced
        _, cred = registry.register_user("owner")
        session = registry.login(cred)
        _, service = publish_service_with_bindings(
            registry, session, description=CONSTRAINT_LS
        )
        for host in HOSTS:
            record(registry, host, 0.5)
        sc = lb.service_constraint
        baseline_misses = sc.cache_stats()["misses"]
        first = registry.qm.get_access_uris(service.id)
        assert sc.cache_stats()["misses"] == baseline_misses + 1
        # fresh samples force the resolver to re-rank each time, but the
        # description is unchanged: the constraint cache hits, zero re-parses
        for _ in range(10):
            record(registry, HOSTS[0], 0.5)
            assert registry.qm.get_access_uris(service.id) == first
        assert sc.cache_stats()["misses"] == baseline_misses + 1
        assert sc.cache_stats()["hits"] >= 10

    def test_republished_constraints_take_effect_next_discovery(self, balanced):
        registry, lb = balanced
        _, cred = registry.register_user("owner")
        session = registry.login(cred)
        # publisher order deliberately puts the loaded host first
        _, service = publish_service_with_bindings(
            registry,
            session,
            description=CONSTRAINT_LS,
            hosts=[HOSTS[0], HOSTS[1]],
        )
        record(registry, HOSTS[0], 2.0)  # fails "load ls 1.0"
        record(registry, HOSTS[1], 0.5)  # satisfies it
        uris = registry.qm.get_access_uris(service.id)
        assert uris[0] == f"http://{HOSTS[1]}:8080/Adder/addService"
        # republish with the opposite constraint: now only the loaded host satisfies
        updated = registry.qm.get_registry_object(service.id)
        updated.description.set(CONSTRAINT_GR)
        registry.lcm.update_objects(session, [updated])
        uris = registry.qm.get_access_uris(service.id)
        assert uris[0] == f"http://{HOSTS[0]}:8080/Adder/addService"
        # and the cache actually re-parsed rather than serving the stale entry
        assert lb.service_constraint.cache_stats()["misses"] >= 2

    def test_cache_disabled_still_correct(self, clock):
        # the uncached reference path is a direct parse_constraints call:
        # cached answers (first parse and repeat hits) must match it
        sc = ServiceConstraint(clock)
        descriptions = [
            CONSTRAINT_LS,
            CONSTRAINT_GR,
            "plain text, no constraint block",
            "<constraint><cpuLoad>load ls</cpuLoad></constraint>",  # malformed
            "",
        ]
        for _ in range(2):
            for description in descriptions:
                svc = Service(ids.new_id(), name="S", description=description)
                assert sc.constraints_of(svc) == parse_constraints(description)
        assert sc.cache_stats()["hits"] == len(descriptions)

    def test_parse_cache_is_bounded(self, clock):
        bound = constraint_module.PARSE_CACHE_SIZE
        sc = ServiceConstraint(clock)
        for n in range(bound + 10):
            description = f"<constraint><cpuLoad>load ls {n}</cpuLoad></constraint>"
            sc.check(Service(ids.new_id(), name=f"S{n}", description=description))
        stats = sc.cache_stats()
        assert stats["misses"] == bound + 10
        assert stats["entries"] <= bound


def balanced_manual_registry(description=CONSTRAINT_LS, *, max_age=None):
    """A ManualClock registry with two bound hosts and the constraint resolver."""
    clock = ManualClock(start=11 * 3600.0)  # 11:00
    registry = RegistryServer(RegistryConfig(seed=7), clock=clock)
    service_constraint = ServiceConstraint(clock)
    load_status = LoadStatus(registry.node_state, clock=clock, max_age=max_age)
    resolver = ConstraintBindingResolver(service_constraint, load_status)
    registry.daos.services.set_resolver(resolver)
    service = Service(ids.new_id(), name="S", description=description)
    uris = ["http://hostA.test:80/s", "http://hostB.test:80/s"]
    for uri in uris:
        binding = ServiceBinding(ids.new_id(), service=service.id, access_uri=uri)
        service.binding_ids.append(binding.id)
        registry.store.insert_object(binding)
    registry.store.insert_object(service)
    record(registry, "hostA.test", 2.0)  # fails "load ls 1.0"
    record(registry, "hostB.test", 0.5)  # satisfies it
    return registry, resolver, service, uris


class TestResolutionCache:
    def test_steady_state_served_without_resolving(self):
        registry, resolver, service, uris = balanced_manual_registry()
        first = registry.qm.get_access_uris(service.id)
        assert first == [uris[1], uris[0]]  # satisfying host ranked first
        resolutions = resolver.resolutions
        for _ in range(10):
            assert registry.qm.get_access_uris(service.id) == first
        assert resolver.resolutions == resolutions  # cache, not the resolver

    def test_sample_publish_invalidates(self):
        registry, resolver, service, uris = balanced_manual_registry()
        assert registry.qm.get_access_uris(service.id) == [uris[1], uris[0]]
        record(registry, "hostA.test", 0.1)  # load flips below hostB's 0.5
        record(registry, "hostB.test", 3.0)
        assert registry.qm.get_access_uris(service.id) == [uris[0], uris[1]]

    def test_unrelated_heap_write_keeps_cache(self):
        registry, resolver, service, _uris = balanced_manual_registry()
        registry.qm.get_access_uris(service.id)
        resolutions = resolver.resolutions
        registry.store.insert_object(Organization(ids.new_id(), name="Unrelated"))
        registry.qm.get_access_uris(service.id)
        # per-record view invalidation: an Organization insert does not
        # touch the service, so its cached resolution survives
        assert resolver.resolutions == resolutions

    def test_binding_write_invalidates(self):
        registry, resolver, service, uris = balanced_manual_registry()
        assert registry.qm.get_access_uris(service.id) == [uris[1], uris[0]]
        resolutions = resolver.resolutions
        binding = registry.store.get_object(service.binding_ids[0])
        registry.store.save_object(binding)
        registry.qm.get_access_uris(service.id)
        assert resolver.resolutions == resolutions + 1  # re-resolved

    def test_service_write_invalidates(self):
        registry, resolver, service, _uris = balanced_manual_registry()
        registry.qm.get_access_uris(service.id)
        resolutions = resolver.resolutions
        registry.store.save_object(registry.store.get_object(service.id))
        registry.qm.get_access_uris(service.id)
        assert resolver.resolutions == resolutions + 1  # re-resolved

    def test_clock_minute_invalidates_time_window(self):
        windowed = (
            "<constraint><cpuLoad>load ls 1.0</cpuLoad>"
            "<starttime>1000</starttime><endtime>1200</endtime></constraint>"
        )
        registry, _resolver, service, uris = balanced_manual_registry(windowed)
        # 11:00 — inside the window: balanced order
        assert registry.qm.get_access_uris(service.id) == [uris[1], uris[0]]
        registry.clock.advance(2 * 3600.0)
        # 13:00 — window closed: publisher order, despite the cached entry
        assert registry.qm.get_access_uris(service.id) == [uris[0], uris[1]]

    def test_staleness_ages_out_of_cache(self):
        registry, _resolver, service, uris = balanced_manual_registry(max_age=100.0)
        assert registry.qm.get_access_uris(service.id) == [uris[1], uris[0]]
        registry.clock.advance(101.0)
        # both samples stale now — nothing satisfies, publisher order returns
        assert registry.qm.get_access_uris(service.id) == [uris[0], uris[1]]


class TestIndexConsistency:
    def test_rollback_restores_name_and_type_indexes(self):
        store = DataStore()
        keep = Organization(ids.new_id(), name="KeepMe")
        store.insert_object(keep)
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.insert_object(Organization(ids.new_id(), name="Phantom"))
                renamed = store.get_object(keep.id)
                renamed.name.set("Renamed")
                store.save_object(renamed)
                store.delete_object(keep.id)
                raise RuntimeError("boom")
        assert [o.id for o in store.find_by_name("Organization", "KeepMe")] == [keep.id]
        assert store.find_by_name("Organization", "Phantom") == []
        assert store.find_by_name("Organization", "Renamed") == []
        assert [o.id for o in store.objects_of_type("Organization")] == [keep.id]
        assert store.count("Organization") == 1

    def test_save_moves_name_index(self):
        store = DataStore()
        org = Organization(ids.new_id(), name="Before")
        store.insert_object(org)
        renamed = store.get_object(org.id)
        renamed.name.set("After")
        store.save_object(renamed)
        assert store.find_by_name("Organization", "Before") == []
        assert [o.id for o in store.find_by_name("Organization", "After")] == [org.id]

    def test_prefix_search_uses_range_scan(self):
        store = DataStore()
        names = ["DemoOrg_1", "DemoOrg_2", "DemoOrg_10", "Other", "Demo"]
        by_name = {}
        for name in names:
            org = Organization(ids.new_id(), name=name)
            store.insert_object(org)
            by_name[name] = org.id
        found = store.find_by_name_prefix("Organization", "DemoOrg_")
        assert {o.name.value for o in found} == {"DemoOrg_1", "DemoOrg_2", "DemoOrg_10"}
        # id-sorted, matching the pre-index contract
        assert [o.id for o in found] == sorted(o.id for o in found)

    def test_delete_clears_indexes(self):
        store = DataStore()
        org = Organization(ids.new_id(), name="Gone")
        store.insert_object(org)
        store.delete_object(org.id)
        assert store.find_by_name("Organization", "Gone") == []
        assert store.find_by_name_prefix("Organization", "G") == []
        assert store.objects_of_type("Organization") == []


class TestViews:
    def test_views_alias_copies_isolate(self):
        store = DataStore()
        org = Organization(ids.new_id(), name="SDSU")
        store.insert_object(org)
        assert store.get_view(org.id) is store.get_view(org.id)
        assert store.get_object(org.id) is not store.get_object(org.id)
        listed = list(store.iter_views_of_type("Organization"))
        assert listed[0] is store.get_view(org.id)
        # copies still protect the heap
        fetched = store.get_object(org.id)
        fetched.name.set("mutated")
        assert store.get_view(org.id).name.value == "SDSU"

    def test_resolve_bindings_returns_safe_copies(self, registry, session):
        _, service = publish_service_with_bindings(registry, session)
        bindings = registry.qm.get_service_bindings(service.id)
        bindings[0].name.set("mutated-by-caller")
        again = registry.qm.get_service_bindings(service.id)
        assert again[0].name.value != "mutated-by-caller"


class TestSnapshotRanking:
    def test_stale_samples_excluded_unchanged(self):
        clock = ManualClock()
        store = DataStore()
        from repro.persistence.nodestate import NodeStateStore

        node_state = NodeStateStore(store)
        ls = LoadStatus(node_state, clock=clock, max_age=10.0)
        constraints = parse_constraints(CONSTRAINT_LS)
        node_state.record_sample(
            NodeSample(host="fresh", load=0.5, memory=1, swap_memory=1, updated=0.0)
        )
        node_state.record_sample(
            NodeSample(host="stale", load=0.1, memory=1, swap_memory=1, updated=0.0)
        )
        clock.advance(5.0)
        assert ls.rank(["stale", "fresh"], constraints) == ["stale", "fresh"]
        # age out "stale" by refreshing only "fresh"
        node_state.record_sample(
            NodeSample(host="fresh", load=0.5, memory=1, swap_memory=1, updated=5.0)
        )
        clock.advance(9.0)
        assert ls.satisfying_hosts(["stale", "fresh"], constraints) == ["fresh"]
        assert ls.rank(["stale", "fresh"], constraints) == ["fresh"]

    def test_rank_tie_break_keeps_publisher_order(self):
        clock = ManualClock()
        store = DataStore()
        from repro.persistence.nodestate import NodeStateStore

        node_state = NodeStateStore(store)
        ls = LoadStatus(node_state, clock=clock)
        constraints = parse_constraints(CONSTRAINT_LS)
        for host in ("c", "a", "b"):
            node_state.record_sample(
                NodeSample(host=host, load=0.5, memory=1, swap_memory=1, updated=0.0)
            )
        assert ls.rank(["c", "a", "b"], constraints) == ["c", "a", "b"]

    def test_rank_orders_by_load(self):
        clock = ManualClock()
        store = DataStore()
        from repro.persistence.nodestate import NodeStateStore

        node_state = NodeStateStore(store)
        ls = LoadStatus(node_state, clock=clock)
        constraints = parse_constraints(CONSTRAINT_LS)
        loads = {"x": 0.9, "y": 0.1, "z": 0.5}
        for host, load in loads.items():
            node_state.record_sample(
                NodeSample(host=host, load=load, memory=1, swap_memory=1, updated=0.0)
            )
        assert ls.rank(["x", "y", "z"], constraints) == ["y", "z", "x"]


class TestMonitorTargetCache:
    def test_targets_cached_and_invalidated_on_publish(self, sim_registry, transport, engine):
        _, cred = sim_registry.register_user("admin", roles={"RegistryAdministrator"})
        admin = sim_registry.login(cred)
        service = publish_nodestatus(sim_registry, admin, hosts=HOSTS[:2])
        monitor = TimeHits(sim_registry, transport, engine)
        first = monitor.target_uris()
        assert first == [nodestatus_uri(h) for h in HOSTS[:2]]
        assert monitor._target_cache is not None  # primed
        assert monitor.target_uris() == first
        # publishing another NodeStatus binding must invalidate the cache
        sim_registry.lcm.submit_objects(
            admin,
            [
                ServiceBinding(
                    sim_registry.ids.new_id(),
                    service=service.id,
                    access_uri=nodestatus_uri(HOSTS[2]),
                )
            ],
        )
        assert monitor.target_uris() == [nodestatus_uri(h) for h in HOSTS]

    def test_cache_survives_unrelated_writes_but_not_rollback(
        self, sim_registry, transport, engine
    ):
        _, cred = sim_registry.register_user("admin", roles={"RegistryAdministrator"})
        admin = sim_registry.login(cred)
        publish_nodestatus(sim_registry, admin)
        monitor = TimeHits(sim_registry, transport, engine)
        targets = monitor.target_uris()
        assert monitor._target_cache is not None
        sim_registry.lcm.submit_objects(
            admin, [Organization(sim_registry.ids.new_id(), name="Unrelated")]
        )
        assert monitor._target_cache is not None
        assert monitor.target_uris() == targets
        with pytest.raises(RuntimeError):
            with sim_registry.store.transaction():
                raise RuntimeError("boom")
        # the rollback bumps the store version the cached list is stamped
        # with, so the entry fails validation and the next call rescans
        assert monitor._target_cache[0] != sim_registry.store.version
        assert monitor.target_uris() == targets
        assert monitor._target_cache[0] == sim_registry.store.version


class TestWindowing:
    def test_windowed_query_slices_once_with_total(self, registry, session):
        for i in range(7):
            registry.lcm.submit_objects(
                session, [Organization(registry.ids.new_id(), name=f"Org{i}")]
            )
        response = registry.qm.execute_adhoc_query(
            "SELECT name FROM Organization ORDER BY name",
            start_index=2,
            max_results=3,
        )
        assert [r["name"] for r in response.rows] == ["Org2", "Org3", "Org4"]
        assert response.total_result_count == 7
        assert response.start_index == 2
        # window past the end is empty but the total is still the full count
        tail = registry.qm.execute_adhoc_query(
            "SELECT name FROM Organization", start_index=100, max_results=5
        )
        assert tail.rows == [] and tail.total_result_count == 7


class TestHoistedDispatch:
    def test_operator_compare_table(self):
        assert Operator.GT.compare(2.0, 1.0)
        assert Operator.LEQ.compare(1.0, 1.0)
        assert not Operator.LS.compare(2.0, 1.0)

    def test_dao_registry_routes_every_type(self, registry):
        svc = Service(ids.new_id(), name="S")
        assert registry.daos.dao_for(svc) is registry.daos.services
        org = Organization(ids.new_id(), name="O")
        assert registry.daos.dao_for(org) is registry.daos.organizations
