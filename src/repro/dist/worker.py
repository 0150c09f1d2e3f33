"""The worker loop: lease, start, execute, upload — and heartbeat.

``repro dist worker HOST:PORT`` runs :func:`worker_loop` in the
foreground.  The loop leases jobs via
:meth:`~repro.dist.queue.Broker.lease_jobs` (the broker sizes the
lease from its cost model when scheduling is ``cost``; leased surplus
is what idle peers steal), announces each execution with ``start`` (a
``False`` answer means the job was stolen — skip it; *pinned* leases
arrive pre-started and skip the announcement round-trip entirely), and
ships results (or a :class:`~repro.dist.queue.JobFailure` wrapping the
exception, with its text bounded by
:func:`~repro.dist.queue.truncate_failure_text`) back in batched
``complete_many`` uploads of up to :data:`UPLOAD_BATCH` finished jobs
— one RPC instead of N, flushed at every lease boundary so results
never wait on future work.  Each completion carries the job's
measured wall time, which trains the broker's cost model.  Because completions are
idempotent broker-side, a flush interrupted by a torn connection is
simply replayed after the reconnect.

Liveness is a side thread beating over its *own* broker connection
(manager proxies are not thread-safe across threads), so a worker
stays alive through arbitrarily long jobs; a worker that dies stops
beating and the broker re-enqueues its leases after ``lease_timeout``.

Self-healing: connects run under the unified
:class:`~repro.retry.RetryPolicy`, a heartbeat thread that died (torn
connection) is restarted on the next lease, and a torn *main*
connection triggers a reconnect attempt before the worker gives up —
so a broker restart stalls a worker instead of killing it.  Fault
plans (:mod:`repro.faults`) inject at the ``worker.execute`` and
``worker.heartbeat`` hooks; the plan arrives through the
``REPRO_FAULT_PLAN`` environment variable for forked fleet workers.

Each worker installs a :class:`~repro.dist.cachetier.CacheTier`
(optional local disk + the broker's shared store) as the process-wide
active cache of :mod:`repro.dist.jobs`, so fleet jobs transparently
pool converged sizing results across workers.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
import uuid
from multiprocessing import AuthenticationError
from typing import Optional

from repro import obs
from repro.core.compiled import highs_bindings
from repro.errors import ReproError
from repro.faults import injector as faults
from repro.retry import DEFAULT_RETRY, RetryPolicy

from repro.dist import jobs as dist_jobs
from repro.dist.cachetier import CacheTier
from repro.dist.queue import (
    DEFAULT_AUTHKEY,
    JobFailure,
    JobPayload,
    MAX_FAILURE_TEXT,
    connect,
    parse_address,
    truncate_failure_text,
)
from repro.exec.cache import ResultCache

__all__ = ["default_worker_id", "worker_loop"]

#: Finished jobs buffered per ``complete_many`` upload.  The buffer also
#: flushes at every lease boundary, so a result waits on at most the
#: jobs of its own lease, never on future work.
UPLOAD_BATCH = 8

#: Connection errors meaning "the broker went away" — a worker treats
#: them as a reconnect signal first and a shutdown signal second.
_BROKER_GONE = (ConnectionError, EOFError, BrokenPipeError, OSError)


def default_worker_id() -> str:
    """A fleet-unique worker name: host, pid, and a random suffix."""
    return (
        f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
    )


def _execute(payload: JobPayload, max_failure_text: int = MAX_FAILURE_TEXT):
    """Run one job; exceptions become a shippable :class:`JobFailure`.

    Failure text is truncated to ``max_failure_text`` characters per
    field — a job that crashes with a huge repr or locals dump must not
    bloat the broker's result store or the driver's logs.
    """
    try:
        return payload.fn(payload.item)
    except Exception as exc:
        return JobFailure(
            error=truncate_failure_text(repr(exc), max_failure_text),
            traceback=truncate_failure_text(
                traceback.format_exc(), max_failure_text
            ),
        )


class _MetricsShipper:
    """Ships this process's counter deltas to the broker, exactly once.

    ``ship(send)`` snapshots the local registry, computes the increment
    since the last *successful* ship, and hands the delta envelope
    (``None`` when there is nothing new) to ``send``, which performs
    the actual RPC.  The baseline only advances after ``send`` returns,
    so a failed upload re-ships the same delta next time instead of
    losing it — and the lock is held across the RPC so the heartbeat
    thread and the main loop can never ship the same delta twice.

    With metrics disabled the registry snapshot is empty, every
    envelope is ``None``, and the broker sees plain heartbeats.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._shipped: dict = {}

    def ship(self, send) -> None:
        with self._lock:
            registry = obs.registry()
            snap = registry.counters_snapshot()
            shipped = self._shipped
            deltas = {
                name: value - shipped.get(name, 0)
                for name, value in snap.items()
                if value != shipped.get(name, 0)
            }
            gauges = registry.gauges_snapshot()
            envelope = (
                {"counters": deltas, "gauges": gauges}
                if deltas or gauges
                else None
            )
            send(envelope)
            self._shipped = snap


class _Heartbeat(threading.Thread):
    """Beats over a dedicated broker connection until stopped.

    The ``worker.heartbeat`` fault hook fires before every beat: an
    injected stall freezes this thread's beats exactly as a frozen
    process would, so the broker's reaper path is exercised for real.
    """

    def __init__(self, address, authkey, worker_id, interval, shipper=None):
        super().__init__(name=f"heartbeat-{worker_id}", daemon=True)
        self._address = address
        self._authkey = authkey
        self._worker_id = worker_id
        self._interval = interval
        self._shipper = shipper
        # Not named ``_stop``: Thread.is_alive() calls its own private
        # ``_stop()`` method, which an Event attribute would shadow.
        self._halt = threading.Event()

    def run(self) -> None:
        try:
            broker = connect(self._address, authkey=self._authkey).broker
            while not self._halt.wait(self._interval):
                faults.fire("worker.heartbeat", worker_id=self._worker_id)
                if self._shipper is not None:
                    # Each beat piggybacks the metric delta since the
                    # last successful ship — the broker's fleet view
                    # stays live without extra RPCs.
                    self._shipper.ship(
                        lambda env: broker.heartbeat(self._worker_id, env)
                    )
                else:
                    broker.heartbeat(self._worker_id)
        except _BROKER_GONE:
            return

    def stop(self) -> None:
        self._halt.set()


def worker_loop(
    address,
    authkey: bytes = DEFAULT_AUTHKEY,
    cache_dir: Optional[str] = None,
    cache_max_bytes: Optional[int] = None,
    prefetch: int = 2,
    poll_interval: float = 0.1,
    max_idle: Optional[float] = None,
    worker_id: Optional[str] = None,
    retry: RetryPolicy = DEFAULT_RETRY,
    max_failure_text: int = MAX_FAILURE_TEXT,
) -> int:
    """Serve jobs from the broker at ``address`` until told to stop.

    Parameters
    ----------
    address:
        Broker address (``"host:port"`` or a pair).
    cache_dir / cache_max_bytes:
        Optional local disk tier under the shared cache (a worker
        without one still reads/writes the broker's shared store).
    prefetch:
        Jobs requested per lease (``>= 1``); the surplus beyond the
        one executing is the stealable margin.  Under cost scheduling
        the broker may resize the grant (see ``Broker.lease_jobs``).
    poll_interval:
        Sleep between empty leases (``> 0``).
    max_idle:
        Exit after this many consecutive seconds without work
        (``>= 0``; ``None`` = serve forever); the number of jobs
        executed is returned.
    retry:
        Backoff policy for broker connects and reconnects (a broker
        restart is survivable; a permanently dead broker ends the
        loop cleanly).
    max_failure_text:
        Per-field bound on shipped :class:`JobFailure` text.
    """
    # Validate before connecting: a bad value must fail fast, not on
    # the first idle poll against a live broker.
    if prefetch < 1:
        raise ReproError(f"prefetch must be >= 1, got {prefetch}")
    if not poll_interval > 0:
        raise ReproError(
            f"poll_interval must be > 0, got {poll_interval}"
        )
    if max_idle is not None and not max_idle >= 0:
        raise ReproError(f"max_idle must be >= 0, got {max_idle}")
    faults.install_from_env()
    obs.install_from_env()
    # Arrive warm: load the LP solver bindings (most of scipy) before
    # the broker can count this worker, so no job absorbs the import.
    highs_bindings()
    address = parse_address(address)
    worker_id = worker_id or default_worker_id()

    def _connect():
        connection = connect(address, authkey=authkey)
        return connection, connection.broker.config()["lease_timeout"]

    try:
        (connection, lease_timeout) = retry.call(
            _connect, describe="worker connect"
        )
    except (AuthenticationError, *_BROKER_GONE) as exc:
        host, port = address
        raise ReproError(
            f"cannot connect to broker at {host}:{port} ({exc!r}); is "
            f"'repro dist serve' running there with a matching "
            f"--authkey?"
        )
    broker = connection.broker
    beat_interval = max(lease_timeout / 4, 0.02)
    # Workers always count their work: the broker's fleet view (`repro
    # dist top`) is only as good as what workers ship, and the counting
    # cost is noise next to a job.  Restored on exit so an in-process
    # caller (tests) does not leak an enabled registry.
    metrics_were_enabled = obs.metrics_enabled()
    obs.enable_metrics()
    c_jobs = obs.counter("worker.jobs")
    c_failed = obs.counter("worker.jobs_failed")
    c_skipped = obs.counter("worker.jobs_stolen_away")
    shipper = _MetricsShipper()

    def _start_heartbeat() -> _Heartbeat:
        heartbeat = _Heartbeat(
            address,
            authkey,
            worker_id,
            interval=beat_interval,
            shipper=shipper,
        )
        heartbeat.start()
        return heartbeat

    heartbeat = _start_heartbeat()
    local = (
        ResultCache(cache_dir, max_bytes=cache_max_bytes)
        if cache_dir
        else None
    )
    previous_cache = dist_jobs.set_active_cache(
        CacheTier(remote=broker, local=local)
    )
    executed = 0
    idle_since: Optional[float] = None
    # Finished-but-unshipped completions: (job_id, result, runtime).
    # Broker-side completion is idempotent, so this buffer is safe to
    # replay wholesale after a reconnect — losing it to a worker death
    # only re-runs the jobs, it never corrupts a result.
    outbox: list = []

    def _flush() -> None:
        """Upload every buffered completion in one RPC."""
        if not outbox:
            return
        batch = list(outbox)
        shipper.ship(
            lambda env: broker.complete_many(worker_id, batch, env)
        )
        outbox.clear()

    def _reconnect() -> bool:
        """Try to re-establish the main connection (broker restart)."""
        nonlocal broker, connection
        try:
            (connection, _) = retry.call(
                _connect, describe="worker reconnect"
            )
        except Exception:
            return False
        broker = connection.broker
        # The tier must follow the new connection: proxies bound to
        # the dead broker raise forever.
        tier = dist_jobs.active_cache()
        if isinstance(tier, CacheTier):
            tier.remote = broker
        return True

    try:
        while True:
            # A heartbeat thread killed by a torn connection (flaky
            # transport, broker restart) is restarted here, so a
            # transient drop costs at most one reap, not the worker.
            if not heartbeat.is_alive():
                heartbeat = _start_heartbeat()
            try:
                lease = broker.lease_jobs(worker_id, max_jobs=prefetch)
            except _BROKER_GONE:
                if _reconnect():
                    continue
                break
            leased = lease["jobs"]
            pinned = lease["pinned"]
            if not leased:
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                elif max_idle is not None and now - idle_since > max_idle:
                    break
                time.sleep(poll_interval)
                continue
            idle_since = None
            for job_id, payload in leased:
                try:
                    # Pinned leases were marked started at lease time —
                    # the broker already guarantees nobody steals them,
                    # so the per-job announcement round-trip is skipped.
                    if not pinned and not broker.start(worker_id, job_id):
                        c_skipped.inc()
                        continue  # stolen while leased — the thief runs it
                    faults.fire(
                        "worker.execute",
                        worker_id=worker_id,
                        job_id=job_id,
                    )
                    with obs.span("worker.job") as job_span:
                        job_span.set("job", list(job_id))
                        t0 = time.monotonic()
                        result = _execute(payload, max_failure_text)
                        runtime = time.monotonic() - t0
                    c_jobs.inc()
                    if isinstance(result, JobFailure):
                        c_failed.inc()
                    # Buffered upload: the flush RPC carries the
                    # metric delta too, so a worker that dies right
                    # after its last flush has already shipped those
                    # jobs' counters.
                    outbox.append((job_id, result, runtime))
                    executed += 1
                    if len(outbox) >= UPLOAD_BATCH:
                        _flush()
                except _BROKER_GONE:
                    if not _reconnect():
                        return executed
                    try:
                        _flush()  # idempotent replay of the outbox
                    except _BROKER_GONE:
                        pass  # next lease iteration reconnects again
                    continue  # a reaped lease re-runs elsewhere; move on
            # Lease boundary: ship whatever the batch threshold left
            # behind — a completed result must never wait on jobs the
            # worker has not even leased yet.
            try:
                _flush()
            except _BROKER_GONE:
                if not _reconnect():
                    return executed
                try:
                    _flush()
                except _BROKER_GONE:
                    pass
    finally:
        heartbeat.stop()
        dist_jobs.set_active_cache(previous_cache)
        if not metrics_were_enabled:
            obs.disable_metrics()
    return executed
