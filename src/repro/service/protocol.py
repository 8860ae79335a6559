"""The service wire protocol: newline-delimited JSON over a local socket.

One request per line, one-or-more reply lines per request (streaming
subscriptions send interim event lines before the final reply).  Every
message is a JSON object; requests carry an ``op`` field, replies an
``ok`` field (plus ``error``/``reason`` when ``ok`` is false).  The
format is text-only on purpose — like the proof store, a corrupt or
adversarial peer can at worst fail to parse, never execute.

Requests
--------

============  ===========================================================
``submit``    ``{"op": "submit", "jobs": [<job spec>, ...]}`` — admit a
              batch; per-job reply entries are ``{"id": ...}`` or
              ``{"error": "shed", "reason": ...}``
``status``    one job (``"id"``) or the whole table (no ``"id"``)
``wait``      block until a job is terminal; ``"stream": true`` emits
              ``{"event": "progress", ...}`` lines while it runs
``cancel``    cancel a queued or running job
``health``    liveness + queue depth + workers + breaker state
``stats``     the service counter snapshot
``pause`` /   stop/resume dequeuing (admin; admission control keeps
``resume``    working — this is how shedding is tested deterministically)
``drain``     graceful shutdown: finish running jobs, flush, exit
============  ===========================================================

Job spec fields: ``source`` (program text) or ``bench`` (registry name
from ``repro.benchmarks``), plus optional ``name``, ``order`` (``seq`` |
``lockstep`` | ``rand:N``), ``mode``, ``search``, ``max_rounds``,
``tenant``, ``family`` (breaker key; defaults to the program name's
stem), ``cost`` (budget tokens), ``timeout`` (per-attempt watchdog
seconds), ``max_attempts``, ``faults`` (a ``repro.verifier.faults``
spec injected into this job's workers).
"""

from __future__ import annotations

import json

#: newline-delimited JSON hard cap — a line longer than this is a
#: protocol violation (protects the server from an unframed peer)
MAX_LINE = 8 * 1024 * 1024

#: default rendezvous point of ``repro serve`` and the clients
DEFAULT_SOCKET = "/tmp/repro-serve.sock"

OPS = (
    "submit",
    "status",
    "wait",
    "cancel",
    "health",
    "stats",
    "pause",
    "resume",
    "drain",
)

_ORDER_PREFIXES = ("seq", "lockstep", "rand:")

#: job-spec keys copied through admission (everything else is dropped,
#: so a peer cannot smuggle fields into the journal)
JOB_FIELDS = (
    "source",
    "bench",
    "name",
    "order",
    "mode",
    "search",
    "max_rounds",
    "tenant",
    "family",
    "cost",
    "timeout",
    "max_attempts",
    "faults",
    "baseline_digest",
    "triage",
)


class ProtocolError(ValueError):
    """A malformed request/reply line or job spec."""


def encode(message: dict) -> bytes:
    """One wire line for *message* (compact JSON + newline)."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode()


def decode(line: bytes | str) -> dict:
    """Parse one wire line; raises :class:`ProtocolError` on garbage."""
    if len(line) > MAX_LINE:
        raise ProtocolError(f"line exceeds {MAX_LINE} bytes")
    try:
        message = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"unparseable message: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("message is not a JSON object")
    return message


def error_reply(error: str, reason: str | None = None, **extra) -> dict:
    reply = {"ok": False, "error": error}
    if reason is not None:
        reply["reason"] = reason
    reply.update(extra)
    return reply


def normalize_job_spec(raw: dict) -> dict:
    """Validate and normalize one submitted job spec.

    Returns the cleaned spec (only :data:`JOB_FIELDS`, defaults
    applied); raises :class:`ProtocolError` on a spec the server could
    not execute deterministically.
    """
    if not isinstance(raw, dict):
        raise ProtocolError("job spec is not an object")
    spec = {k: raw[k] for k in JOB_FIELDS if k in raw}
    source = spec.get("source")
    bench = spec.get("bench")
    if bool(source) == bool(bench):
        raise ProtocolError("job spec needs exactly one of 'source'/'bench'")
    if source is not None and not isinstance(source, str):
        raise ProtocolError("'source' must be program text")
    if bench is not None and not isinstance(bench, str):
        raise ProtocolError("'bench' must be a registry name")
    order = spec.setdefault("order", "seq")
    if not (
        isinstance(order, str)
        and (order in _ORDER_PREFIXES[:2] or order.startswith("rand:"))
    ):
        raise ProtocolError(f"unknown order {order!r}")
    if order.startswith("rand:"):
        try:
            int(order.split(":", 1)[1])
        except ValueError as exc:
            raise ProtocolError(f"bad order {order!r}") from exc
    tenant = spec.setdefault("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("'tenant' must be a non-empty string")
    name = spec.get("name") or bench or "<submitted>"
    spec["name"] = name
    # the breaker's corpus-family key: explicit, else the program name
    # with any "(...)" instance suffix stripped ("bluetooth(3)" and
    # "bluetooth(4)" share one failure domain)
    if not spec.get("family"):
        spec["family"] = name.partition("(")[0]
    cost = spec.setdefault("cost", 1)
    if not isinstance(cost, int) or cost < 1:
        raise ProtocolError("'cost' must be a positive integer")
    for key, typ in (
        ("mode", str),
        ("search", str),
        ("faults", str),
        ("baseline_digest", str),
    ):
        if key in spec and not isinstance(spec[key], typ):
            raise ProtocolError(f"{key!r} must be a {typ.__name__}")
    for key in ("max_rounds", "max_attempts"):
        if key in spec and (
            not isinstance(spec[key], int) or spec[key] < 1
        ):
            raise ProtocolError(f"{key!r} must be a positive integer")
    if "timeout" in spec:
        try:
            spec["timeout"] = float(spec["timeout"])
        except (TypeError, ValueError) as exc:
            raise ProtocolError("'timeout' must be a number") from exc
        if spec["timeout"] <= 0:
            raise ProtocolError("'timeout' must be positive")
    if "triage" in spec and not isinstance(spec["triage"], bool):
        raise ProtocolError("'triage' must be a boolean")
    return spec
