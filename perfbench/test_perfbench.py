"""The benchmark's own tests: its answer checks catch wrong answers.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from fixture import ServiceSpec, build_fixture  # noqa: E402
from oracle import BrowseOracle, prefer_order, store_matches_replay  # noqa: E402
from repro.sim.nodestatus import NodeStatusReading  # noqa: E402
from repro.soap.messages import RegistryResponse, UpdateObjectsRequest  # noqa: E402
from workloads import Browse, Churn, Discover, Request, query_text  # noqa: E402

GB = 1 << 30


def reading(host: str, load: float, memory: int = 4 * GB) -> NodeStatusReading:
    return NodeStatusReading(host=host, cpu_load=load, memory_available=memory, swap_available=GB)


BINDINGS = [("b1", "h1", "u1"), ("b2", "h2", "u2"), ("b3", "h3", "u3"), ("b4", "h4", "u4")]


def test_prefer_reference_puts_satisfying_hosts_first_by_load():
    spec = ServiceSpec(name="s", load_max=2.0, memory_min=2 * GB, description="<constraint/>")
    samples = {
        "h1": reading("h1", 3.0),  # load too high
        "h2": reading("h2", 1.5),
        "h3": reading("h3", 0.5),
        "h4": reading("h4", 0.1, memory=GB),  # too little memory
    }
    assert prefer_order(spec, BINDINGS, samples, minute=600) == ["u3", "u2", "u1", "u4"]


def test_prefer_reference_keeps_publisher_order_outside_window_or_unconstrained():
    samples = {host: reading(host, 3.0 - i) for i, (_, host, _) in enumerate(BINDINGS)}
    closed = ServiceSpec(name="s", load_max=5.0, window=(780, 900), description="<constraint/>")
    assert prefer_order(closed, BINDINGS, samples, minute=600) == ["u1", "u2", "u3", "u4"]
    assert prefer_order(ServiceSpec(name="s"), BINDINGS, samples, 600) == ["u1", "u2", "u3", "u4"]


@pytest.fixture(scope="module")
def fixture():
    return build_fixture(5)


def test_discover_counts_a_corrupted_answer_as_failed(fixture):
    workload = Discover(fixture, seed=5)
    honest = workload.bqm.get_service_bindings

    def corrupted(service_id):
        bindings = honest(service_id)
        return bindings[1:] + bindings[:1]  # rotate: wrong order for 4 hosts

    workload.bqm.get_service_bindings = corrupted
    phase = workload.run(0.3)
    assert phase.attempted > 0
    assert phase.failed == phase.attempted
    workload.bqm.get_service_bindings = honest
    assert workload.run(0.3).failed == 0


def test_browse_counts_a_corrupted_object_as_failed(fixture):
    workload = Browse(fixture, seed=5)
    name = fixture.specs[fixture.service_ids[3]].name
    objects = workload.find_by_name(name)
    oracle = BrowseOracle(fixture.registry.store)
    text = query_text("service_name", name)
    assert oracle.check(text, objects)
    objects[0].description.set("tampered")
    assert not oracle.check(text, objects)
    assert not oracle.check(text, [])


def test_churn_counts_a_wrong_read_and_an_unreplayed_resend(fixture):
    with Churn(fixture, seed=5) as workload:
        schedule = workload.schedule(400)
        phase = workload.run_open_loop(schedule, 400.0)
        assert phase.failed == 0
        assert workload.resends > 0
        read = next(r for r in schedule if r.kind == "read")
        response = workload.supervisor.call(body=read.body, timeout=10.0)
        assert workload.check(read, response)
        response.objects.pop()
        assert not workload.check(read, response)
        key, original = next(iter(workload.answers.items()))
        rerun = Future()
        rerun.set_result(RegistryResponse(ids=[*original.ids, "urn:uuid:re-run"]))
        resend = Request("write", UpdateObjectsRequest(objects=[], idempotency_key=key), resend=True)
        assert workload._collect([resend], [rerun]) == [False]
    assert workload.final_check()


class DivergedStore:
    """A live store whose heap no longer matches its changelog."""

    def __init__(self, store, tampered_id: str) -> None:
        self.changelog = store.changelog
        self._store = store
        self._tampered_id = tampered_id

    def all_ids(self):
        return self._store.all_ids()

    def get_object(self, object_id: str):
        obj = self._store.get_object(object_id)
        if object_id == self._tampered_id:
            obj.description.set("written without a changelog record")
        return obj


def test_store_check_catches_a_heap_that_diverged_from_the_changelog(fixture):
    store = fixture.registry.store
    assert store_matches_replay(store)
    assert not store_matches_replay(DivergedStore(store, fixture.service_ids[0]))


def test_refuses_to_run_without_the_registry_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "discover", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
