"""Tests for registry federation: shard map, replication links, routing."""

import pytest

from repro.registry import RegistryConfig, RegistryFederation, RegistryServer
from repro.registry.federation import ReplicationLink, ShardMap
from repro.rim import Organization
from repro.rim.service import host_of_uri
from repro.soap.envelope import SoapEnvelope, SoapFault
from repro.soap.messages import GetRegistryObjectRequest
from repro.soap.serializer import serialize
from repro.util.clock import ManualClock
from repro.util.errors import (
    InvalidRequestError,
    ObjectNotFoundError,
    TransportError,
)


@pytest.fixture
def federation():
    fed = RegistryFederation("sdsu-fed")
    registries = []
    for i in range(2):
        reg = RegistryServer(
            RegistryConfig(seed=100 + i, home=f"http://reg{i}.sdsu.edu:8080/omar/registry"),
            clock=ManualClock(),
        )
        fed.join(reg)
        registries.append(reg)
    return fed, registries


def _publish(reg, name, object_id=None):
    _, cred = reg.register_user(f"user-{name}")
    session = reg.login(cred)
    org = Organization(object_id or reg.ids.new_id(), name=name)
    reg.lcm.submit_objects(session, [org])
    return org, session


def _id_owned_by(fed, reg):
    """Mint an object id the shard map assigns to *reg*."""
    for _ in range(256):
        object_id = reg.ids.new_id()
        if fed.shard_map.owner(object_id) == reg.home:
            return object_id
    raise AssertionError("shard map never chose the target member")


def _ask(fed, reg, object_id):
    """One getRegistryObject through *reg*'s SOAP edge (the routed path)."""
    envelope = SoapEnvelope(body=GetRegistryObjectRequest(object_id=object_id))
    return fed.transport.request(fed.endpoint_for(reg.home), envelope)


class TestMembership:
    def test_members_sorted_by_home(self, federation):
        fed, _ = federation
        homes = [r.home for r in fed.members()]
        assert homes == sorted(homes)

    def test_duplicate_join_rejected(self, federation):
        fed, registries = federation
        with pytest.raises(InvalidRequestError):
            fed.join(registries[0])

    def test_leave(self, federation):
        fed, registries = federation
        fed.leave(registries[0])
        assert len(fed.members()) == 1


class TestFederatedQuery:
    def test_merges_tagged_results(self, federation):
        fed, (r0, r1) = federation
        _publish(r0, "OrgZero")
        _publish(r1, "OrgOne")
        rows = fed.federated_query("SELECT name FROM Organization")
        assert {(row.home, row.row["name"]) for row in rows} == {
            (r0.home, "OrgZero"),
            (r1.home, "OrgOne"),
        }


class TestResolve:
    def test_resolves_to_holding_member(self, federation):
        fed, (r0, r1) = federation
        org, _ = _publish(r1, "OrgOne")
        holder, obj = fed.resolve(org.id)
        assert holder is r1
        assert obj.id == org.id

    def test_missing_everywhere(self, federation):
        fed, (r0, _) = federation
        with pytest.raises(ObjectNotFoundError):
            fed.resolve(r0.ids.new_id())


class TestReplication:
    def test_selective_replication(self, federation):
        fed, (r0, r1) = federation
        org, _ = _publish(r0, "OrgZero")
        _, cred = r1.register_user("replicator")
        dest_session = r1.login(cred)
        replica = fed.replicate(org.id, to=r1, session=dest_session)
        assert replica.id == org.id
        assert replica.home == r0.home  # replica remembers its home registry
        assert r1.store.contains(org.id)
        assert r0.store.contains(org.id)  # source untouched

    def test_replicate_onto_home_rejected(self, federation):
        fed, (r0, _) = federation
        org, session = _publish(r0, "OrgZero")
        with pytest.raises(InvalidRequestError):
            fed.replicate(org.id, to=r0, session=session)

    def test_resolve_prefers_home_member_over_replica(self, federation):
        # r0 sorts before r1, so a replica on r0 used to shadow the source
        fed, (r0, r1) = federation
        org, _ = _publish(r1, "OrgOne")
        _, cred = r0.register_user("replicator")
        fed.replicate(org.id, to=r0, session=r0.login(cred))
        holder, obj = fed.resolve(org.id)
        assert holder is r1
        assert obj.home == r1.home


class TestShardMap:
    def test_owner_stable_across_instances(self):
        homes = [f"http://m{i}:8080/omar/registry" for i in range(3)]
        first, second = ShardMap(), ShardMap()
        for shard in (first, second):
            for home in homes:
                shard.add_member(home)
        keys = [f"urn:uuid:key-{n}" for n in range(100)]
        assert [first.owner(k) for k in keys] == [second.owner(k) for k in keys]

    def test_every_member_owns_keys(self):
        shard = ShardMap()
        homes = [f"http://m{i}:8080/omar/registry" for i in range(4)]
        for home in homes:
            shard.add_member(home)
        spread = shard.spread([f"urn:uuid:key-{n}" for n in range(400)])
        assert set(spread) == set(homes)
        assert all(count > 0 for count in spread.values())

    def test_remove_member_only_remaps_its_keys(self):
        shard = ShardMap()
        homes = [f"http://m{i}:8080/omar/registry" for i in range(3)]
        for home in homes:
            shard.add_member(home)
        keys = [f"urn:uuid:key-{n}" for n in range(300)]
        before = {k: shard.owner(k) for k in keys}
        shard.remove_member(homes[0])
        for key, owner in before.items():
            if owner != homes[0]:  # keys of surviving members never move
                assert shard.owner(key) == owner

    def test_empty_ring_owns_nothing(self):
        assert ShardMap().owner("urn:uuid:anything") is None

    def test_bad_virtual_nodes_rejected(self):
        with pytest.raises(ValueError):
            ShardMap(virtual_nodes=0)


class TestReplicationLink:
    def test_pump_copies_committed_objects_bit_identically(self, federation):
        fed, (r0, r1) = federation
        org, _ = _publish(r0, "OrgZero")
        link = fed.link(r0, r1)
        assert link.lag() == r0.store.changelog.last_seq
        link.pump()
        assert link.lag() == 0
        assert link.watermark == r0.store.changelog.last_seq
        assert serialize(r1.store.get_object(org.id)) == serialize(
            r0.store.get_object(org.id)
        )
        assert r1.store.get_object(org.id).home == r0.home

    def test_bounded_pump_limits_per_tick_work(self, federation):
        fed, (r0, r1) = federation
        _publish(r0, "OrgZero")
        link = fed.link(r0, r1)
        total = r0.store.changelog.last_seq
        link.pump(max_records=1)
        assert link.watermark == 1
        assert link.lag() == total - 1

    def test_repump_is_idempotent(self, federation):
        fed, (r0, r1) = federation
        org, _ = _publish(r0, "OrgZero")
        link = fed.link(r0, r1)
        assert link.pump() > 0
        assert link.pump() == 0  # nothing new past the watermark
        # a fresh link re-applies from seq 0 without duplicating state
        count_after_first_pump = r1.store.count()
        fresh = ReplicationLink(r0, r1)
        fresh.pump()
        assert r1.store.count() == count_after_first_pump
        assert serialize(r1.store.get_object(org.id)) == serialize(
            r0.store.get_object(org.id)
        )

    def test_deletes_replicate(self, federation):
        fed, (r0, r1) = federation
        org, session = _publish(r0, "Doomed")
        link = fed.link(r0, r1)
        link.pump()
        assert r1.store.contains(org.id)
        r0.lcm.remove_objects(session, [org.id])
        link.pump()
        assert not r1.store.contains(org.id)

    def test_rolled_back_transaction_never_replicates(self, federation):
        fed, (r0, r1) = federation
        link = fed.link(r0, r1)
        doomed = Organization(r0.ids.new_id(), name="RolledBack", home=r0.home)
        with pytest.raises(RuntimeError):
            with r0.store.transaction():
                r0.store.insert_object(doomed)
                raise RuntimeError("abort")
        link.pump()
        assert link.skipped_barriers == 1
        assert link.lag() == 0  # the barrier advanced the watermark
        assert not r1.store.contains(doomed.id)

    def test_mesh_replication_converges_without_echo(self, federation):
        fed, (r0, r1) = federation
        fed.link_all()
        _publish(r0, "OrgZero")
        _publish(r1, "OrgOne")
        for _ in range(4):
            if fed.replication_lag() == 0:
                break
            fed.pump_replication()
        assert fed.replication_lag() == 0
        lengths = (len(r0.store.changelog), len(r1.store.changelog))
        fed.pump_replication()  # an extra pass must not create new records
        assert (len(r0.store.changelog), len(r1.store.changelog)) == lengths

    def test_member_local_infrastructure_never_replicates(self, federation):
        fed, (r0, r1) = federation
        link = fed.link(r0, r1)
        user, _ = r0.register_user("local-only")
        link.pump()
        assert link.filtered > 0  # users/credentials carry no home
        assert not r1.store.contains(user.id)

    def test_link_requires_membership_and_distinct_homes(self, federation):
        fed, (r0, r1) = federation
        with pytest.raises(InvalidRequestError):
            ReplicationLink(r0, r0)
        outsider = RegistryServer(
            RegistryConfig(seed=900, home="http://outsider:8080/omar/registry"),
            clock=ManualClock(),
        )
        with pytest.raises(InvalidRequestError):
            fed.link(r0, outsider)

    def test_link_deduplicates_and_leave_closes(self, federation):
        fed, (r0, r1) = federation
        link = fed.link(r0, r1)
        assert fed.link(r0, r1) is link
        fed.leave(r0)
        assert fed.links() == []


class TestShardRouting:
    def test_locally_held_objects_served_locally(self, federation):
        fed, (r0, r1) = federation
        org, _ = _publish(r1, "OrgOne")
        response = _ask(fed, r1, org.id)
        assert response.status == "Success"
        stats = fed.router_for(r1.home).stats()
        assert stats["local"] >= 1
        assert stats["forwarded"] == 0

    def test_miss_forwards_to_shard_owner(self, federation):
        fed, (r0, r1) = federation
        object_id = _id_owned_by(fed, r0)
        org, _ = _publish(r0, "OrgZero", object_id=object_id)
        response = _ask(fed, r1, org.id)
        assert response.status == "Success"
        assert response.objects[0]["id"] == org.id
        assert fed.router_for(r1.home).stats()["forwarded_by_owner"] == {r0.home: 1}
        assert fed.router_for(r0.home).stats()["forwarded_served"] == 1

    def test_forwarded_response_bit_identical_to_local(self, federation):
        fed, (r0, r1) = federation
        object_id = _id_owned_by(fed, r0)
        org, _ = _publish(r0, "OrgZero", object_id=object_id)
        forwarded = _ask(fed, r1, org.id)  # r1 misses, forwards to r0
        direct = _ask(fed, r0, org.id)  # r0 serves its own object
        assert forwarded == direct

    def test_authoritative_miss_faults_locally(self, federation):
        fed, (r0, r1) = federation
        object_id = _id_owned_by(fed, r1)  # r1 owns the shard, holds nothing
        response = _ask(fed, r1, object_id)
        assert isinstance(response, SoapFault)
        assert response.fault_code == ObjectNotFoundError.code
        assert fed.router_for(r1.home).stats()["forwarded"] == 0

    def test_forwarding_retries_then_surfaces_transport_fault(self, federation):
        fed, (r0, r1) = federation
        object_id = _id_owned_by(fed, r0)
        _publish(r0, "OrgZero", object_id=object_id)
        fed.transport.set_host_down(host_of_uri(fed.endpoint_for(r0.home)))
        response = _ask(fed, r1, object_id)
        assert isinstance(response, SoapFault)
        assert response.fault_code == TransportError.code
        # the transport's retry mini-chain ran before the failure surfaced
        assert fed.transport.stats.retries >= 2
        fed.transport.set_host_down(host_of_uri(fed.endpoint_for(r0.home)), False)

    def test_forwarded_requests_never_hop_twice(self, federation):
        fed, (r0, r1) = federation
        org, _ = _publish(r1, "OrgOne")
        envelope = SoapEnvelope(body=GetRegistryObjectRequest(object_id=org.id))
        envelope.headers[SoapEnvelope.FORWARDED_HEADER] = "http://elsewhere/omar"
        response = fed.transport.request(fed.endpoint_for(r1.home), envelope)
        assert response.status == "Success"
        assert fed.router_for(r1.home).stats()["forwarded_served"] == 1


class TestPipelineVisibility:
    def test_federated_query_accounted_in_pipeline_stats(self, federation):
        fed, (r0, r1) = federation
        _publish(r0, "OrgZero")
        fed.federated_query("SELECT name FROM Organization")
        for reg in (r0, r1):
            assert reg.pipeline_stats()["soap"]["executeQuery"]["count"] == 1

    def test_resolve_probes_accounted_in_pipeline_stats(self, federation):
        fed, (r0, r1) = federation
        org, _ = _publish(r0, "OrgZero")
        fed.resolve(org.id)
        for reg in (r0, r1):
            assert reg.pipeline_stats()["soap"]["getRegistryObject"]["count"] == 1
        # resolve probes are forwarded-marked: members answer for themselves
        assert fed.router_for(r0.home).stats()["forwarded_served"] == 1

    def test_route_stats_mounted_as_telemetry_source(self, federation):
        fed, (r0, _) = federation
        snapshot = r0.telemetry_snapshot()
        assert "route" in snapshot
        assert snapshot["route"]["local"] == 0
        fed.leave(r0)
        assert "route" not in r0.telemetry.sources()


class TestFederationStats:
    def test_federation_stats_surface(self, federation):
        fed, (r0, r1) = federation
        fed.link_all()
        _publish(r0, "OrgZero")
        fed.pump_replication()
        stats = fed.federation_stats()
        assert stats["name"] == "sdsu-fed"
        assert stats["members"] == sorted([r0.home, r1.home])
        assert stats["shard"]["members"] == 2
        assert set(stats["route"]) == {r0.home, r1.home}
        assert len(stats["replication"]) == 2
        assert stats["transport"]["requests"] >= 0
