"""The daemon's request protocol: length-prefixed JSON over a socket.

One frame is a 4-byte big-endian length followed by a UTF-8 JSON
object. Requests carry a ``verb`` plus verb-specific fields; responses
carry ``ok`` (bool) plus either payload fields or ``error``/``code``.
JSON because every field here is control-plane metadata measured in
kilobytes (program images travel base64-encoded inside the JSON, and
the largest are a few KB); the data plane — states and cache entries
between engine and workers — stays on the binary
:mod:`repro.runtime.wire` protocol.

The length prefix is bounded (:data:`MAX_FRAME_BYTES`) on both ends so
a corrupt or malicious peer cannot make either side allocate
gigabytes, mirroring ``RuntimeConfig.max_frame_bytes`` on the worker
wire. A peer that violates the framing is hung up on — the daemon
never lets one bad connection poison another client's session.

Verbs
-----

``submit``   program image + options (+ idempotency ``token``) ->
             ``job_id``, ``namespace``; a token the daemon has already
             seen dedups onto the original job (``deduped: true``)
``poll``     job_id *or* token -> state summary (queued/running/...)
``result``   job_id *or* token -> full result payload
``cancel``   job_id *or* token -> dequeue a queued job / flag a
             running one
``stats``    -> daemon, per-client, pool, queue, and cache-store stats
``jobs``     -> one summary row per job this daemon has seen
``ping``     -> liveness
``status``   -> health probe: journal, watchdog, degraded-mode state
``shutdown`` -> drain and stop the daemon

Submit options
--------------

``submit``'s ``options`` object carries only these (the table is
``repro.serve.config.SubmitOptions``). Each value is coerced to its
type where it enters the daemon — the request, or a journal record at
replay — and a name or value the table cannot take is refused with
``bad-request`` naming it; nothing is queued or journaled. ``null``
reads as "not given".

``workers``             int    pool width if one is created for this
                               image (default ``--workers-per-job``)
``max_instructions``    int    default: the daemon's own
``superstep_scale``     int    multiply the recognized superstep
``inflight_wait_bias``  float  readiness to wait on an in-flight task
``verify_rate``         float  in [0, 1]: share of splices audited
``strict_verify``       bool   audit every splice, synchronously
``engine``              object ``EngineConfig.overrides()`` of the tuning
``deadline_seconds``    float  default: ``--job-deadline``

Error codes split into two classes the client acts on differently:
**retryable** — ``busy`` (per-client admission bound), ``overloaded``
(the resource governor shed the request at admission because a
memory/disk/shm/fd budget is exhausted; back off and retry, the
condition clears when pressure lifts), ``timeout``, ``connection``,
``disconnected``, ``no-daemon`` — and **authoritative** refusals
(``bad-request``, ``bad-program``, ``not-found``, ``draining``, ...)
where asking again cannot change the answer.

Version 2 added ``token`` fields, ``status``, and journal replay; the
daemon still answers version-1 clients (it never rejects on the
``protocol`` field), so a mixed fleet keeps working across an upgrade.
"""

import json
import socket
import struct

from repro.errors import ReproError

#: Protocol revision (advisory: responses echo it; requests carrying an
#: older one are still served).
PROTOCOL_VERSION = 2

#: Hard ceiling on one frame. Program images are a few KB of base64 and
#: final states a few KB more; 64 MiB is generous headroom, not a quota.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct("!I")

VERB_SUBMIT = "submit"
VERB_POLL = "poll"
VERB_RESULT = "result"
VERB_CANCEL = "cancel"
VERB_STATS = "stats"
VERB_JOBS = "jobs"
VERB_PING = "ping"
VERB_STATUS = "status"
VERB_SHUTDOWN = "shutdown"

VERBS = (VERB_SUBMIT, VERB_POLL, VERB_RESULT, VERB_CANCEL, VERB_STATS,
         VERB_JOBS, VERB_PING, VERB_STATUS, VERB_SHUTDOWN)


class ProtocolError(ReproError):
    """A frame violated the serve protocol."""


def encode_message(obj):
    """One frame: length prefix + JSON body."""
    body = json.dumps(obj, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError("message of %d bytes exceeds the %d-byte frame "
                            "limit" % (len(body), MAX_FRAME_BYTES))
    return _LENGTH.pack(len(body)) + body


def decode_body(body):
    try:
        obj = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("undecodable frame body: %s" % exc)
    if not isinstance(obj, dict):
        raise ProtocolError("frame body must be a JSON object, got %s"
                            % type(obj).__name__)
    return obj


def _recv_exact(sock, n):
    """Read exactly ``n`` bytes; ``None`` on clean EOF at a frame edge."""
    chunks = []
    got = 0
    while got < n:
        try:
            chunk = sock.recv(n - got)
        except InterruptedError:
            continue
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError("connection closed mid-frame (%d of %d "
                                "bytes)" % (got, n))
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def send_message(sock, obj):
    sock.sendall(encode_message(obj))


def recv_message(sock, max_bytes=MAX_FRAME_BYTES):
    """Read one frame; ``None`` when the peer closed between frames.

    ``socket.timeout`` propagates — the daemon uses short socket
    timeouts to stay responsive to shutdown while a connection idles.
    """
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length == 0 or length > max_bytes:
        raise ProtocolError("frame length %d outside (0, %d]"
                            % (length, max_bytes))
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed before frame body")
    return decode_body(body)


def ok_response(**fields):
    fields["ok"] = True
    return fields


def error_response(message, code="error"):
    return {"ok": False, "error": str(message), "code": code}


def connect(socket_path, timeout=None):
    """Open a client connection to a daemon socket."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    if timeout is not None:
        sock.settimeout(timeout)
    try:
        sock.connect(socket_path)
    except OSError:
        sock.close()
        raise
    return sock


def daemon_running(socket_path):
    """Is something accepting connections on ``socket_path``?"""
    try:
        sock = connect(socket_path, timeout=1.0)
    except OSError:
        return False
    sock.close()
    return True
