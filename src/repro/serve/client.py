"""Fault-hardened client for the speculation daemon.

One :class:`ServeClient` wraps one socket connection and speaks the
:mod:`repro.serve.protocol` verbs as methods. The daemon owns every
job's truth; the client's job is to keep a request alive across the
failures a long-lived service actually has:

* **busy** (per-client admission control), **overloaded** (resource
  governor load shedding) and **connect errors** retry with bounded
  exponential backoff plus jitter, so a thundering herd of clients
  does not re-synchronize against a recovering daemon;
* a **dead or restarted daemon** is survived transparently: every
  retryable verb reconnects and resends. All retried verbs are
  idempotent by construction — ``submit`` auto-generates an
  idempotency token, so a resend after an ambiguous failure dedups
  onto the original job instead of double-submitting, and the same
  token lets ``poll``/``result`` find the job on a *replayed* daemon
  that was SIGKILLed and restarted mid-run;
* a **timed-out round trip** poisons the connection (a stale response
  could arrive later and desync request/response pairing), so the
  socket is dropped and rebuilt before any retry.

``retries=0`` restores the deliberately-dumb PR 6 behavior — one
attempt, every failure surfaced — which the protocol-robustness tests
use to observe raw daemon behavior.
"""

import base64
import getpass
import os
import random
import socket
import time
import uuid

from repro.errors import ReproError
from repro.serve import protocol
from repro.serve.config import ServeConfig

#: Response codes that are never retried: the daemon answered
#: authoritatively and asking again cannot change the answer.
_FATAL_CODES = frozenset((
    "bad-request", "bad-program", "bad-verb", "not-found", "not-done",
    "draining", "result-evicted", "internal", "protocol",
))


class ServeClientError(ReproError):
    """The daemon refused a request or the connection failed."""

    def __init__(self, message, code="error"):
        super().__init__(message)
        self.code = code


def default_client_name():
    """Stable-ish per-user default for the fairness bookkeeping."""
    try:
        user = getpass.getuser()
    except (KeyError, OSError):
        user = "uid%d" % os.getuid() if hasattr(os, "getuid") else "client"
    return "%s@%d" % (user, os.getpid())


class ServeClient:
    """One logical connection to a daemon, resilient to its restarts.

    Usable as a context manager; every method raises
    :class:`ServeClientError` (with the daemon's ``code``) once its
    retry budget is spent. ``timeout`` bounds one round trip;
    ``retries`` bounds how many times a retryable request is re-sent on
    busy/connect/disconnect failures, with delays growing
    ``backoff_base * 2^attempt`` up to ``backoff_max``, jittered to
    50–100% of nominal.
    """

    def __init__(self, socket_path=None, client=None, timeout=30.0,
                 retries=5, backoff_base=0.05, backoff_max=2.0,
                 jitter_seed=None, rng=None):
        self.socket_path = socket_path or ServeConfig().socket_path
        self.client = client or default_client_name()
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.reconnects = 0
        self.retried_requests = 0
        self.last_token = None
        # Backoff jitter is seedable (or the RNG injectable outright)
        # so seeded chaos runs reproduce their reconnect timing; the
        # default stays entropy-seeded — real fleets *should* desync.
        self._rng = rng if rng is not None else random.Random(jitter_seed)
        self._sock = None
        self._connect()  # fail fast when there is no daemon at all

    # -- plumbing ------------------------------------------------------------

    def _connect(self):
        sock = None
        try:
            sock = protocol.connect(self.socket_path, timeout=self.timeout)
        except OSError as exc:
            raise ServeClientError(
                "no daemon at %s (%s) — start one with `repro serve`"
                % (self.socket_path, exc), code="no-daemon")
        self._sock = sock

    def _drop_connection(self):
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _backoff(self, attempt):
        delay = min(self.backoff_max, self.backoff_base * (2 ** attempt))
        return delay * (0.5 + self._rng.random() / 2.0)

    def _round_trip(self, fields):
        if self._sock is None:
            self._connect()
            self.reconnects += 1
        protocol.send_message(self._sock, fields)
        response = protocol.recv_message(self._sock)
        if response is None:
            raise ServeClientError("daemon closed the connection",
                                   code="disconnected")
        if not response.get("ok"):
            raise ServeClientError(response.get("error", "request refused"),
                                   code=response.get("code", "error"))
        return response

    def request(self, verb, _retryable=True, **fields):
        """One request, retried across busy responses, connect errors,
        daemon restarts, and timed-out round trips (retryable verbs are
        all idempotent — see the module docstring). Returns the
        ok-response payload dict."""
        fields["verb"] = verb
        fields["protocol"] = protocol.PROTOCOL_VERSION
        attempt = 0
        while True:
            reconnect = True
            try:
                return self._round_trip(dict(fields))
            except socket.timeout:
                # A late response would desync the stream: poison the
                # connection whether or not we retry.
                self._drop_connection()
                error = ServeClientError(
                    "daemon did not answer %r within %.0fs"
                    % (verb, self.timeout), code="timeout")
            except (OSError, protocol.ProtocolError) as exc:
                self._drop_connection()
                error = ServeClientError(
                    "connection to %s failed: %s"
                    % (self.socket_path, exc), code="connection")
            except ServeClientError as exc:
                if exc.code in ("disconnected", "no-daemon", "connection"):
                    self._drop_connection()
                elif exc.code in ("busy", "overloaded"):
                    # Daemon healthy, just saturated (per-client bound)
                    # or shedding load (resource governor): back off on
                    # the same connection and retry.
                    reconnect = False
                else:
                    raise  # authoritative refusal: retrying cannot help
                error = exc
            if not _retryable or attempt >= self.retries:
                raise error
            if not reconnect:
                pass  # keep the healthy connection for the retry
            self.retried_requests += 1
            time.sleep(self._backoff(attempt))
            attempt += 1

    def close(self):
        self._drop_connection()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- verbs ---------------------------------------------------------------

    def ping(self):
        return self.request(protocol.VERB_PING)

    def status(self):
        """The daemon's health probe: journal, watchdog, degraded-mode
        state (``repro serve --status``)."""
        return self.request(protocol.VERB_STATUS)["status"]

    def submit(self, program, token=None, **options):
        """Submit a :class:`~repro.loader.image.Program`; returns the
        submit payload (``job_id``, ``namespace``, ``warm_entries``,
        ``deduped``, plus the ``token`` used).

        Every submit carries an idempotency token (auto-generated when
        not supplied), which makes the verb safely retryable: a resend
        after an ambiguous failure — or against a restarted daemon that
        replayed its journal — dedups onto the original job.
        """
        token = token or uuid.uuid4().hex
        response = self.request(protocol.VERB_SUBMIT,
                                client=self.client,
                                program=program.to_dict(),
                                options=options,
                                token=token)
        self.last_token = token
        response.setdefault("token", token)
        return response

    def poll(self, job_id=None, token=None):
        """Current summary row for one job, by id or by token (tokens
        survive a daemon restart even if the id was never learned)."""
        return self.request(protocol.VERB_POLL, job_id=job_id,
                            token=token)["job"]

    def wait(self, job_id=None, timeout=120.0, interval=0.05, token=None):
        """Poll until the job is terminal; returns its final summary.
        Individual polls ride the retry machinery, so a daemon restart
        mid-wait is just a longer gap between samples."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.poll(job_id, token=token)
            if job["state"] in ("done", "failed", "cancelled"):
                return job
            if time.monotonic() >= deadline:
                raise ServeClientError("job %s still %s after %.0fs"
                                       % (job_id or token, job["state"],
                                          timeout),
                                       code="timeout")
            time.sleep(interval)

    def result(self, job_id=None, include_state=True, token=None):
        """Full result payload of a DONE job."""
        response = self.request(protocol.VERB_RESULT, job_id=job_id,
                                token=token, include_state=include_state)
        return response["result"]

    def final_state(self, job_id=None, token=None):
        """The job's final machine state, as raw bytes — the
        byte-identical-to-sequential artifact."""
        result = self.result(job_id, include_state=True, token=token)
        return base64.b64decode(result["final_state"])

    def run(self, program, timeout=120.0, token=None, **options):
        """Submit + wait + fetch: the synchronous convenience path
        ``repro submit --wait`` uses. Returns the full result payload.
        Survives a daemon restart mid-run: the token re-finds (or
        re-creates) the job on whatever daemon answers next."""
        submitted = self.submit(program, token=token, **options)
        job_id = submitted["job_id"]
        used_token = submitted.get("token")
        job = self.wait(job_id, timeout=timeout, token=used_token)
        if job["state"] != "done":
            raise ServeClientError("job %s %s: %s"
                                   % (job_id, job["state"], job.get("error")),
                                   code="job-" + job["state"])
        return self.result(job_id, token=used_token)

    def cancel(self, job_id=None, token=None):
        return self.request(protocol.VERB_CANCEL, job_id=job_id,
                            token=token)

    def stats(self):
        return self.request(protocol.VERB_STATS)["stats"]

    def jobs(self):
        return self.request(protocol.VERB_JOBS)["jobs"]

    def shutdown(self, drain=True):
        """Ask the daemon to stop (drains running jobs by default)."""
        return self.request(protocol.VERB_SHUTDOWN, drain=drain,
                            _retryable=False)
