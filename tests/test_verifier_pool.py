"""The shared forked-worker module: the child's message ordering, and
one failure contract for both of its callers (the parallel portfolio
and the job service)."""

from __future__ import annotations

import asyncio
import re
import threading
import time
from functools import partial

import pytest

from repro import VerifierConfig, parse
from repro.core import ThreadUniformOrder
from repro.service.policy import RetryPolicy
from repro.verifier import Verdict, pool, run_parallel_portfolio
from repro.verifier.faults import ENV_VAR, FaultPlan

from test_service_server import (
    CORRECT_SRC,
    NdjsonClient,
    make_config,
    start_service,
    submit_one,
    wait_done,
)


class RecordingConn:
    """A pipe end whose ``send`` is slow and records who sent what when."""

    def __init__(self) -> None:
        self.sends: list[tuple[str, int, float, float]] = []
        self.heartbeat_sending = threading.Event()
        self.closed = False

    def send(self, message) -> None:
        start = time.perf_counter()
        if message[0] == "hb":
            self.heartbeat_sending.set()
        time.sleep(0.01)
        self.sends.append(
            (message[0], threading.get_ident(), start, time.perf_counter())
        )

    def close(self) -> None:
        self.closed = True


def _finish_mid_heartbeat(conn: RecordingConn, outcome):
    """A stand-in for ``verify`` that ends while a heartbeat is being
    sent — the moment an unjoined heartbeat thread would interleave
    its frame with the final one."""

    def fake_verify(*args, **kwargs):
        assert conn.heartbeat_sending.wait(5.0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    return fake_verify


@pytest.mark.parametrize(
    "outcome, final_kind",
    [
        ("a result", "result"),
        (RuntimeError("boom"), "crash"),
        (KeyboardInterrupt(), "crash"),
    ],
    ids=["result", "exception", "base-exception"],
)
def test_final_message_follows_the_joined_heartbeat(
    monkeypatch, outcome, final_kind
):
    monkeypatch.delenv(ENV_VAR, raising=False)
    monkeypatch.setattr(pool, "HB_INTERVAL", 0.001)
    conn = RecordingConn()
    monkeypatch.setattr(pool, "verify", _finish_mid_heartbeat(conn, outcome))
    program = parse(CORRECT_SRC, name="incr2")
    pool.run_attempt(
        conn,
        partial(pool.prebuilt, program, ThreadUniformOrder()),
        VerifierConfig(),
        1.0,
        None,
        None,
    )
    kinds = [kind for kind, *_ in conn.sends]
    assert "hb" in kinds
    assert kinds[-1] == final_kind and kinds.count(final_kind) == 1
    assert conn.sends[-1][1] == threading.get_ident()
    by_start = sorted(conn.sends, key=lambda send: send[2])
    assert by_start == conn.sends
    for before, after in zip(by_start, by_start[1:]):
        assert before[3] <= after[2], "two sends overlapped"
    assert conn.closed


def test_parallel_portfolio_attempts_send_no_heartbeat(monkeypatch):
    """The race acts on nothing a heartbeat carries, so its workers
    start no heartbeat thread: under a 1ms cadence, which would flood
    the pipe otherwise, every event the parent reads is a final one."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    monkeypatch.setattr(pool, "HB_INTERVAL", 0.001)
    kinds = []
    events = pool.Worker.events

    def recording(self):
        for kind, payload in events(self):
            kinds.append(kind)
            yield kind, payload

    monkeypatch.setattr(pool.Worker, "events", recording)
    outcome = run_parallel_portfolio(
        parse(CORRECT_SRC, name="incr2"), VerifierConfig(max_rounds=20), seeds=(1,)
    )
    assert Verdict.CORRECT in [m.verdict for m in outcome.members]
    assert "result" in kinds and "hb" not in kinds


#: (fault spec, verdict, failure_reason pattern, service counter bumped)
CONTRACT = [
    (
        "seed=3;crash_at=0",
        Verdict.ERROR,
        r"worker crashed: InjectedCrash: injected crash "
        r"\(member '[^']+', query 0\) \(attempt 1\)",
        "worker_crashes",
    ),
    (
        "seed=3;exit_at=0",
        Verdict.ERROR,
        r"worker died \(exit code 86, attempt 1\)",
        "worker_crashes",
    ),
    (
        "seed=3;hang_at=0;hang_s=60",
        Verdict.TIMEOUT,
        r"watchdog: killed after \d+\.\ds \(attempt 1\)",
        "worker_timeouts",
    ),
]

def _watchdog(faults: str) -> float | None:
    """A short watchdog for the hang; none for faults that end the
    attempt themselves, so a slow fork cannot turn them into timeouts."""
    return 0.5 if "hang_at" in faults else None


def _portfolio_reasons(faults: str) -> list[tuple[Verdict, str]]:
    outcome = run_parallel_portfolio(
        parse(CORRECT_SRC, name="incr2"),
        VerifierConfig(max_rounds=20),
        seeds=(1,),
        member_timeout=_watchdog(faults),
        retry=RetryPolicy(max_attempts=1),
        fault_plan=FaultPlan.parse(faults),
    )
    return [(m.verdict, m.failure_reason) for m in outcome.members]


def _service_reason(tmp_path, faults: str):
    async def scenario():
        config = make_config(tmp_path, member_timeout=_watchdog(faults))
        service = await start_service(config)
        client = await NdjsonClient.connect(config.socket_path)
        spec = {
            "source": CORRECT_SRC,
            "name": "incr2",
            "faults": faults,
            "max_attempts": 1,
        }
        view = await wait_done(client, await submit_one(client, spec))
        stats = (await client.rpc({"op": "stats"}))["stats"]
        client.writer.close()
        await service.drain("test")
        return view["result"], stats

    result, stats = asyncio.run(scenario())
    return (Verdict(result["verdict"]), result["failure_reason"]), stats


@pytest.mark.parametrize(
    "faults, verdict, reason, counter",
    CONTRACT,
    ids=["crash", "hard-exit", "watchdog"],
)
def test_both_callers_report_failures_alike(
    tmp_path, faults, verdict, reason, counter
):
    members = _portfolio_reasons(faults)
    assert len(members) == 3
    for member_verdict, member_reason in members:
        assert member_verdict is verdict
        assert re.fullmatch(reason, member_reason), member_reason

    (job_verdict, job_reason), stats = _service_reason(tmp_path, faults)
    assert job_verdict is verdict
    assert re.fullmatch(reason, job_reason), job_reason
    other = ({"worker_crashes", "worker_timeouts"} - {counter}).pop()
    assert stats[counter] == 1
    assert stats[other] == 0
