"""End-to-end tests of the verification service: the asyncio server is
started in-process (its workers still fork real isolated processes) and
driven over its Unix socket with a minimal NDJSON client.

Covers admission control (queue depth, tenant budgets, draining),
journaled restart recovery, retries over transient faults, the circuit
breaker (admission shed + queued-job fast-fail), cancellation, progress
streaming, weighted-fair dequeue, and graceful drain.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import parse
from repro.core import ConditionalCommutativity
from repro.logic import Solver
from repro.service import protocol
from repro.service.policy import (
    AdmissionPolicy,
    BreakerPolicy,
    RetryPolicy,
    ServicePolicies,
)
from repro.service.queue import FairQueue, Job
from repro.service.server import ServiceConfig, VerificationService
from repro.service.worker import job_fingerprint
from repro.verifier import VerifierConfig, verify
from repro.verifier.faults import FaultPlan

CORRECT_SRC = (
    "var x: int = 0; thread A { x := x + 1; } "
    "thread B { x := x + 1; } post: x == 2;"
)
BUGGY_SRC = "var x: int = 0; thread A { x := 1; } thread B { assert x == 0; }"


class NdjsonClient:
    """The smallest possible asyncio NDJSON peer for these tests."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, path):
        reader, writer = await asyncio.open_unix_connection(str(path))
        return cls(reader, writer)

    async def send(self, message: dict) -> None:
        self.writer.write(protocol.encode(message))
        await self.writer.drain()

    async def recv(self) -> dict:
        line = await asyncio.wait_for(self.reader.readline(), timeout=60)
        assert line, "server closed the connection"
        return json.loads(line)

    async def rpc(self, message: dict) -> dict:
        await self.send(message)
        return await self.recv()

    async def close(self) -> None:
        self.writer.close()
        with pytest.raises(Exception):  # pragma: no cover - best effort
            await self.writer.wait_closed()


def make_config(tmp_path, **kw) -> ServiceConfig:
    base = dict(
        socket_path=str(tmp_path / "s.sock"),
        journal_path=str(tmp_path / "jobs.journal"),
        workers=1,
        member_timeout=60.0,
    )
    base.update(kw)
    return ServiceConfig(**base)


async def start_service(config: ServiceConfig) -> VerificationService:
    service = VerificationService(config)
    await service.start()
    return service


async def hard_stop(service: VerificationService) -> None:
    """Abandon a service without drain — the in-loop stand-in for
    SIGKILL (accept records are already fsynced; nothing else may be
    flushed)."""
    for task in service._worker_tasks:
        task.cancel()
    await asyncio.gather(*service._worker_tasks, return_exceptions=True)
    if service._server is not None:
        service._server.close()
        await service._server.wait_closed()


async def submit_one(client: NdjsonClient, spec: dict) -> str:
    reply = await client.rpc({"op": "submit", "jobs": [spec]})
    entry = reply["jobs"][0]
    assert entry.get("id"), entry
    return entry["id"]


async def wait_done(client: NdjsonClient, job_id: str, timeout=60) -> dict:
    reply = await client.rpc(
        {"op": "wait", "id": job_id, "timeout": timeout}
    )
    assert reply["ok"], reply
    return reply["job"]


def direct_fingerprint(source: str, name: str) -> dict:
    from repro.core import ThreadUniformOrder

    program = parse(source, name=name)
    solver = Solver()
    result = verify(
        program,
        ThreadUniformOrder(),
        ConditionalCommutativity(solver),
        config=VerifierConfig(max_rounds=60),
        solver=solver,
    )
    return job_fingerprint(result)


def test_submit_wait_verdicts_match_direct_verify(tmp_path):
    async def scenario():
        service = await start_service(make_config(tmp_path))
        client = await NdjsonClient.connect(service.config.socket_path)
        jid_ok = await submit_one(
            client, {"source": CORRECT_SRC, "name": "incr2"}
        )
        jid_bug = await submit_one(
            client, {"source": BUGGY_SRC, "name": "buggy"}
        )
        ok = await wait_done(client, jid_ok)
        bug = await wait_done(client, jid_bug)
        await service.drain("test")
        return ok, bug

    ok, bug = asyncio.run(scenario())
    assert ok["state"] == "done"
    assert ok["result"]["verdict"] == "correct"
    assert bug["result"]["verdict"] == "incorrect"
    assert bug["result"]["counterexample"], "counterexample must survive"
    # the service result is bit-identical to a direct in-process run
    assert job_fingerprint(ok["result"]) == direct_fingerprint(
        CORRECT_SRC, "incr2"
    )
    assert job_fingerprint(bug["result"]) == direct_fingerprint(
        BUGGY_SRC, "buggy"
    )
    # fleet counters rode along in query_stats
    assert ok["result"]["query_stats"]["service_jobs"] >= 1


def test_restart_replays_pending_jobs_exactly_once(tmp_path):
    config = make_config(tmp_path)

    async def before_kill():
        service = await start_service(config)
        client = await NdjsonClient.connect(config.socket_path)
        assert (await client.rpc({"op": "pause"}))["ok"]
        ids = [
            await submit_one(
                client, {"source": CORRECT_SRC, "name": f"job{i}"}
            )
            for i in range(3)
        ]
        await hard_stop(service)
        return ids

    ids = asyncio.run(before_kill())

    async def after_restart():
        service = await start_service(config)
        client = await NdjsonClient.connect(config.socket_path)
        views = [await wait_done(client, jid) for jid in ids]
        stats = (await client.rpc({"op": "stats"}))["stats"]
        await service.drain("test")
        return views, stats

    views, stats = asyncio.run(after_restart())
    assert [v["result"]["verdict"] for v in views] == ["correct"] * 3
    assert stats["replayed_pending"] == 3
    assert stats["completed"] == 3
    # ... and a second restart re-enqueues nothing: all three are DONE
    # in the journal now
    async def third_start():
        service = await start_service(config)
        client = await NdjsonClient.connect(config.socket_path)
        stats = (await client.rpc({"op": "stats"}))["stats"]
        status = await client.rpc({"op": "status"})
        await service.drain("test")
        return stats, status

    stats3, status3 = asyncio.run(third_start())
    assert stats3["replayed_pending"] == 0
    assert stats3["replayed_done"] == 3
    assert status3["by_state"] == {"done": 3}


def test_queue_depth_shed(tmp_path):
    config = make_config(
        tmp_path,
        policies=ServicePolicies(
            admission=AdmissionPolicy(max_queue_depth=2)
        ),
    )

    async def scenario():
        service = await start_service(config)
        client = await NdjsonClient.connect(config.socket_path)
        await client.rpc({"op": "pause"})
        reply = await client.rpc(
            {
                "op": "submit",
                "jobs": [
                    {"source": CORRECT_SRC, "name": f"q{i}"}
                    for i in range(5)
                ],
            }
        )
        stats = (await client.rpc({"op": "stats"}))["stats"]
        await service.drain("test")
        return reply, stats

    reply, stats = asyncio.run(scenario())
    assert reply["accepted"] == 2
    assert reply["shed"] == 3
    reasons = [e.get("reason") for e in reply["jobs"] if "id" not in e]
    assert reasons == ["queue_full"] * 3
    assert stats["shed_queue_full"] == 3
    assert stats["shed"] == 3


def test_tenant_budget_shed_is_per_tenant(tmp_path):
    config = make_config(
        tmp_path,
        policies=ServicePolicies(
            admission=AdmissionPolicy(
                max_queue_depth=100, max_tenant_outstanding=1
            )
        ),
    )

    async def scenario():
        service = await start_service(config)
        client = await NdjsonClient.connect(config.socket_path)
        await client.rpc({"op": "pause"})
        reply = await client.rpc(
            {
                "op": "submit",
                "jobs": [
                    {"source": CORRECT_SRC, "name": "a1", "tenant": "a"},
                    {"source": CORRECT_SRC, "name": "a2", "tenant": "a"},
                    {"source": CORRECT_SRC, "name": "b1", "tenant": "b"},
                ],
            }
        )
        stats = (await client.rpc({"op": "stats"}))["stats"]
        await service.drain("test")
        return reply, stats

    reply, stats = asyncio.run(scenario())
    entries = reply["jobs"]
    assert "id" in entries[0]
    assert entries[1]["reason"] == "tenant_budget"
    assert entries[1]["tenant"] == "a"
    assert "id" in entries[2], "tenant b must not be collateral damage"
    assert stats["shed_tenant_budget"] == 1


def test_draining_sheds_new_submits(tmp_path):
    async def scenario():
        service = await start_service(make_config(tmp_path))
        service._draining = True  # drain() also closes the socket;
        # flip the flag alone to observe the admission decision
        job, entry = service._admit({"source": CORRECT_SRC, "name": "x"})
        service._draining = False
        await service.drain("test")
        return job, entry, service.stats.shed_draining

    job, entry, shed = asyncio.run(scenario())
    assert job is None
    assert entry["reason"] == "draining"
    assert shed == 1


def test_transient_fault_retries_to_identical_verdict(tmp_path):
    # chaos plan: every first attempt hard-exits its worker at sat
    # query 0; attempts beyond fault_attempts run clean, so the retry
    # converges — and the verdict must match an unfaulted direct run
    config = make_config(
        tmp_path,
        fault_plan=FaultPlan.parse("seed=3;exit_at=0"),
        fault_fraction=1.0,
        fault_attempts=1,
        policies=ServicePolicies(
            retry=RetryPolicy(
                max_attempts=3, backoff_seconds=0.01, seed=5
            )
        ),
    )

    async def scenario():
        service = await start_service(config)
        client = await NdjsonClient.connect(config.socket_path)
        jid = await submit_one(
            client, {"source": CORRECT_SRC, "name": "flaky"}
        )
        view = await wait_done(client, jid)
        stats = (await client.rpc({"op": "stats"}))["stats"]
        await service.drain("test")
        return view, stats

    view, stats = asyncio.run(scenario())
    assert view["result"]["verdict"] == "correct"
    assert view["attempts"] == 2
    assert stats["worker_crashes"] == 1
    assert stats["retries"] == 1
    assert stats["faults_injected"] == 1
    assert job_fingerprint(view["result"]) == direct_fingerprint(
        CORRECT_SRC, "flaky"
    )
    assert view["result"]["query_stats"]["service_retries"] == 1


def test_breaker_trips_sheds_and_fastfails(tmp_path):
    config = make_config(
        tmp_path,
        policies=ServicePolicies(
            retry=RetryPolicy(max_attempts=1),
            breaker=BreakerPolicy(threshold=1, cooldown_seconds=60.0),
        ),
    )

    async def scenario():
        service = await start_service(config)
        client = await NdjsonClient.connect(config.socket_path)
        # two jobs in one family: the first crashes persistently (a
        # job-carried fault applies to every attempt) and trips the
        # breaker; the second was accepted pre-trip so it fast-fails
        await client.rpc({"op": "pause"})
        jid_bad = await submit_one(
            client,
            {
                "source": CORRECT_SRC,
                "name": "fam(1)",
                "faults": "exit_at=0",
            },
        )
        jid_follow = await submit_one(
            client, {"source": CORRECT_SRC, "name": "fam(2)"}
        )
        await client.rpc({"op": "resume"})
        bad = await wait_done(client, jid_bad)
        follow = await wait_done(client, jid_follow)
        # a new submit for the family is shed at admission
        shed_reply = await client.rpc(
            {
                "op": "submit",
                "jobs": [{"source": CORRECT_SRC, "name": "fam(3)"}],
            }
        )
        health = await client.rpc({"op": "health"})
        stats = (await client.rpc({"op": "stats"}))["stats"]
        # an unrelated family is unaffected
        jid_other = await submit_one(
            client, {"source": CORRECT_SRC, "name": "other"}
        )
        other = await wait_done(client, jid_other)
        await service.drain("test")
        return bad, follow, shed_reply, health, stats, other

    bad, follow, shed_reply, health, stats, other = asyncio.run(scenario())
    assert bad["result"]["verdict"] == "error"
    assert follow["result"]["verdict"] == "error"
    assert "circuit breaker open" in follow["result"]["failure_reason"]
    entry = shed_reply["jobs"][0]
    assert entry["reason"] == "breaker_open"
    assert entry["key"] == "default/fam"
    assert health["open_breakers"] == ["default/fam"]
    assert stats["breaker_trips"] == 1
    assert stats["breaker_fastfail"] == 1
    assert stats["shed_breaker"] == 1
    assert other["result"]["verdict"] == "correct"


def test_cancel_queued_job(tmp_path):
    async def scenario():
        service = await start_service(make_config(tmp_path))
        client = await NdjsonClient.connect(service.config.socket_path)
        await client.rpc({"op": "pause"})
        jid = await submit_one(
            client, {"source": CORRECT_SRC, "name": "doomed"}
        )
        reply = await client.rpc({"op": "cancel", "id": jid})
        view = await wait_done(client, jid)
        stats = (await client.rpc({"op": "stats"}))["stats"]
        # budget fully released: the tenant can submit again
        jid2 = await submit_one(
            client, {"source": CORRECT_SRC, "name": "next"}
        )
        await service.drain("test")
        return reply, view, stats, jid2

    reply, view, stats, jid2 = asyncio.run(scenario())
    assert reply["ok"]
    assert view["state"] == "cancelled"
    assert stats["cancelled"] == 1
    assert jid2


def test_wait_stream_emits_lifecycle_events(tmp_path):
    async def scenario():
        service = await start_service(make_config(tmp_path))
        admin = await NdjsonClient.connect(service.config.socket_path)
        await admin.rpc({"op": "pause"})
        jid = await submit_one(
            admin, {"source": CORRECT_SRC, "name": "streamed"}
        )
        watcher = await NdjsonClient.connect(service.config.socket_path)
        await watcher.send(
            {"op": "wait", "id": jid, "stream": True, "timeout": 60}
        )
        # let the server register the subscription before the job runs
        # (the wait request has no interim ack to rendezvous on)
        await asyncio.sleep(0.1)
        await admin.rpc({"op": "resume"})
        events = []
        while True:
            message = await watcher.recv()
            if "event" in message:
                events.append(message["event"])
                continue
            final = message
            break
        await service.drain("test")
        return events, final

    events, final = asyncio.run(scenario())
    assert "attempt" in events
    assert final["ok"]
    assert final["job"]["result"]["verdict"] == "correct"


def test_graceful_drain_finishes_inflight_job(tmp_path):
    config = make_config(tmp_path)

    async def scenario():
        service = await start_service(config)
        client = await NdjsonClient.connect(config.socket_path)
        jid = await submit_one(
            client, {"source": CORRECT_SRC, "name": "inflight"}
        )
        # drain immediately: the running job must finish, not be lost
        await asyncio.sleep(0.05)
        await service.drain("test")
        return jid, service.stats.completed

    jid, completed = asyncio.run(scenario())
    assert completed == 1
    # the result survived into the journal for the next incarnation
    from repro.service.journal import JobJournal

    state = JobJournal(config.journal_path).replay()
    assert state.pending == []
    assert state.done[jid]["verdict"] == "correct"


def test_bad_specs_rejected_without_journal_writes(tmp_path):
    async def scenario():
        service = await start_service(make_config(tmp_path))
        client = await NdjsonClient.connect(service.config.socket_path)
        reply = await client.rpc(
            {
                "op": "submit",
                "jobs": [
                    {},  # neither source nor bench
                    {"source": CORRECT_SRC, "order": "sideways"},
                    {"source": CORRECT_SRC, "cost": -2},
                    {"source": CORRECT_SRC, "faults": "bogus_key=1"},
                ],
            }
        )
        stats = (await client.rpc({"op": "stats"}))["stats"]
        await service.drain("test")
        return reply, stats

    reply, stats = asyncio.run(scenario())
    assert reply["accepted"] == 0
    assert all(e["error"] == "bad_job" for e in reply["jobs"])
    assert stats["rejected_bad_spec"] == 4
    assert stats["journal_appends"] == 0


def test_unknown_op_and_garbage_lines(tmp_path):
    async def scenario():
        service = await start_service(make_config(tmp_path))
        client = await NdjsonClient.connect(service.config.socket_path)
        bad_op = await client.rpc({"op": "frobnicate"})
        client.writer.write(b"this is not json\n")
        await client.writer.drain()
        garbage = await client.recv()
        # the connection is still usable afterwards
        health = await client.rpc({"op": "health"})
        await service.drain("test")
        return bad_op, garbage, health

    bad_op, garbage, health = asyncio.run(scenario())
    assert bad_op["error"] == "protocol"
    assert garbage["error"] == "protocol"
    assert health["ok"]


def test_fair_queue_weighted_interleaving():
    async def scenario():
        queue = FairQueue()
        queue.set_weight("heavy", 2.0)
        for i in range(6):
            await queue.put(Job(id=f"h{i}", spec={"tenant": "heavy"}, seq=i))
        for i in range(6):
            await queue.put(Job(id=f"l{i}", spec={"tenant": "light"}, seq=i))
        order = [
            (await queue.get(lambda: 0.0)).tenant for _ in range(9)
        ]
        return order

    order = asyncio.run(scenario())
    # start-time WFQ: the weight-2 tenant is served twice as often
    assert order.count("heavy") == 6
    assert order.count("light") == 3
    # ... and the light tenant is not starved while heavy has backlog
    assert "light" in order[:3]


def test_fair_queue_idle_tenant_gets_no_catchup_burst():
    async def scenario():
        queue = FairQueue()
        for i in range(4):
            await queue.put(Job(id=f"a{i}", spec={"tenant": "a"}, seq=i))
        # drain two: tenant a's virtual account advances
        await queue.get(lambda: 0.0)
        await queue.get(lambda: 0.0)
        # b arrives late; it must not monopolize to "catch up" to zero
        for i in range(4):
            await queue.put(Job(id=f"b{i}", spec={"tenant": "b"}, seq=i))
        return [(await queue.get(lambda: 0.0)).tenant for _ in range(4)]

    order = asyncio.run(scenario())
    assert order.count("a") == 2
    assert order.count("b") == 2


def test_normalize_job_spec_defaults_and_family():
    spec = protocol.normalize_job_spec({"bench": "bluetooth(3)"})
    assert spec["tenant"] == "default"
    assert spec["name"] == "bluetooth(3)"
    assert spec["family"] == "bluetooth"
    assert spec["order"] == "seq"
    assert spec["cost"] == 1
    with pytest.raises(protocol.ProtocolError):
        protocol.normalize_job_spec({"bench": "x", "source": "y"})
    with pytest.raises(protocol.ProtocolError):
        protocol.normalize_job_spec({"bench": "x", "order": "rand:nope"})
    # unlisted fields never reach the journal
    spec = protocol.normalize_job_spec({"bench": "x", "evil": "payload"})
    assert "evil" not in spec
    # a malformed spec never yields a verdict: every field a worker
    # would run on is checked at admission
    for bad in (
        {"mode": "bogus"},
        {"mode": 3},
        {"search": "zigzag"},
        {"timeout": "nan"},
        {"timeout": float("inf")},
        {"timeout": 0},
        {"timeout": True},
        {"cost": True},
        {"max_rounds": True},
        {"max_attempts": False},
    ):
        with pytest.raises(protocol.ProtocolError):
            protocol.normalize_job_spec({"bench": "x", **bad})
    spec = protocol.normalize_job_spec(
        {"bench": "x", "mode": "sleep", "search": "dfs", "timeout": "2.5"}
    )
    assert (spec["mode"], spec["search"], spec["timeout"]) == (
        "sleep", "dfs", 2.5
    )


def test_normalize_job_spec_baseline_digest():
    # delta verification: tenants quote a prior job's program digest
    spec = protocol.normalize_job_spec(
        {"bench": "x", "baseline_digest": "ab" * 16}
    )
    assert spec["baseline_digest"] == "ab" * 16
    with pytest.raises(protocol.ProtocolError):
        protocol.normalize_job_spec({"bench": "x", "baseline_digest": 7})


def test_job_config_baseline_digest_override():
    from repro.service.worker import job_config
    from repro.verifier import VerifierConfig

    base = VerifierConfig()
    config = job_config(
        {"baseline_digest": "cd" * 16}, base, 1.0
    )
    assert config.baseline_digest == "cd" * 16
    assert job_config({}, base, 1.0).baseline_digest is None
