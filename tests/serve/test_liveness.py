"""Dead-worker detection: a death wakes the supervisor through its sentinel.

Each fleet that finishes its run is held to the conformance oracle's
scalar reference: every stream's events, assembled from acks, must be
bit-identical to the scalar pipeline fed the same batches.  No test
bounds wall time; CI hosts are oversubscribed.
"""

import os
import queue
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro.serve.supervisor as supervisor_module
from repro.faults.service import ServiceFaultPlan, WorkerCrash
from repro.serve import FleetSupervisor
from repro.serve.messages import Batch, Round
from repro.serve.worker import CRASH_EXIT_CODE
from tests.conformance.engines import run_scalar
from tests.conformance.scenarios import Lane, Scenario

#: Six streams over three PMU seeds, eight intervals in four batches each.
SCENARIO = Scenario("liveness", tuple(
    Lane(seed=7 + i % 3, limit=8 * 2032) for i in range(6)),
    buffer_size=2032, chunk=2 * 2032)
N_STREAMS = len(SCENARIO.lanes)
BATCHES_PER_STREAM = 4
N_BATCHES = N_STREAMS * BATCHES_PER_STREAM

posix_signals = pytest.mark.skipif(not hasattr(signal, "SIGKILL"),
                                   reason="needs POSIX signals")

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Starts a one-shard fleet, prints its worker's pid, then waits.
ORPHANING_SUPERVISOR = (
    "import sys, time\n"
    "from repro.serve import FleetSupervisor, ServeConfig\n"
    "fleet = FleetSupervisor(ServeConfig(n_shards=1), ['lane0'],\n"
    "                        sys.argv[1])\n"
    "fleet.start()\n"
    "print(fleet._shards[0].process.pid, flush=True)\n"
    "time.sleep(120)\n")


@pytest.fixture(scope="module")
def fixture_batches():
    return SCENARIO.batches()


@pytest.fixture(scope="module")
def oracle():
    """Per-stream event sequences from the scalar pipeline."""
    events = run_scalar(SCENARIO).events
    assert any(events.values())
    return events


def make_fleet(batches, snapshot_dir, n_shards, faults=None, **knobs):
    config = SCENARIO.serve_config(n_shards=n_shards, **knobs)
    return FleetSupervisor(config, list(batches), str(snapshot_dir),
                           faults=faults)


def submit(fleet, batches, indices):
    for index in indices:
        for stream, chunks in batches.items():
            assert fleet.submit(stream, chunks[index])


def finish(fleet, batches):
    """Drain, collect every stream's events, then stop the fleet."""
    fleet.drain(timeout=60.0)
    events = {stream: fleet.stream_events(stream) for stream in batches}
    summary = fleet.summary()
    return events, summary, fleet.shutdown(graceful=True)


class Watch:
    """Records what the supervisor's waits returned and each respawn saw.

    A respawn is logged with the dead incarnation's sentinel, the result
    of the supervisor's most recent ``connection.wait``, and the shard's
    ``repro_serve_worker_up`` gauge at that moment.
    """

    def __init__(self, fleet, monkeypatch):
        self.waits = []
        self.respawns = []
        real_wait = supervisor_module.wait
        real_respawn = fleet._respawn

        def recording_wait(handles, timeout=None):
            ready = real_wait(handles, timeout)
            self.waits.append(list(ready))
            return ready

        def recording_respawn(state):
            up = worker_up(fleet, state.shard_id)
            last = self.waits[-1] if self.waits else None
            self.respawns.append((state.process.sentinel, last, up))
            real_respawn(state)

        monkeypatch.setattr(supervisor_module, "wait", recording_wait)
        monkeypatch.setattr(fleet, "_respawn", recording_respawn)


def worker_up(fleet, shard):
    return fleet.metrics.gauge("repro_serve_worker_up",
                               shard=str(shard)).value


def stop_holding_reader_lock(process, in_q):
    """SIGSTOP *process* at a moment it holds *in_q*'s reader lock.

    An idle worker waits inside ``in_q.get()``, which holds the lock
    while it polls for data and drops it between polls.
    """
    lock = in_q._rlock
    for _ in range(1000):
        os.kill(process.pid, signal.SIGSTOP)
        os.waitpid(process.pid, os.WUNTRACED)
        if not lock.acquire(block=False):
            return
        lock.release()
        os.kill(process.pid, signal.SIGCONT)
        time.sleep(0.005)  # let it run on to its next poll
    pytest.fail("the worker never held its queue's reader lock")


@pytest.mark.parametrize("before_ack", [False, True])
def test_one_shard_fleet_recovers_bit_identically(tmp_path, fixture_batches,
                                                  oracle, monkeypatch,
                                                  before_ack):
    # With one shard the dead worker held the only write end of the
    # only ack pipe: its reader is at end-of-file once the sentinel
    # fires, and that must read as a death, not as pending messages.
    # The crash opens the last tick and travels alone, so the rest of
    # the tick needs the successor, and the drain starts only after the
    # worker is gone, so its wait finds both handles ready at once.
    batches = fixture_batches
    crash = WorkerCrash(shard=0, at_seq=N_BATCHES - N_STREAMS,
                        before_ack=before_ack)
    fleet = make_fleet(batches, tmp_path, n_shards=1, snapshot_every=4,
                       faults=ServiceFaultPlan((crash,)))
    watch = Watch(fleet, monkeypatch)
    try:
        fleet.start()
        assert worker_up(fleet, 0) == 1.0
        first = fleet._shards[0].process
        submit(fleet, batches, range(BATCHES_PER_STREAM))
        first.join(timeout=60.0)
        assert first.exitcode == CRASH_EXIT_CODE
        fleet.drain(timeout=60.0)
        # Draining took the new incarnation's acks, and its
        # WorkerStarted comes first on its pipe.
        up_after_drain = worker_up(fleet, 0)
        events, summary, exit_codes = finish(fleet, batches)
    except BaseException:
        fleet.shutdown(graceful=False)
        raise
    assert summary["restarts"] == 1
    [(_, _, up_at_respawn)] = watch.respawns
    assert up_at_respawn == 0.0
    assert up_after_drain == 1.0
    assert summary["divergences"] == 0
    assert exit_codes == {0: 0}
    assert events == oracle


@posix_signals
def test_outside_kill_is_seen_through_the_sentinel(tmp_path, fixture_batches,
                                                   oracle, monkeypatch):
    # SIGKILL lands where no injected fault does: the worker is idle in
    # in_q.get(), holding the queue's reader lock, and it never runs its
    # exit path.  The worker is stopped first, so the second half's
    # submits see no death: the drain's wait is what sees it die.
    batches = fixture_batches
    fleet = make_fleet(batches, tmp_path, n_shards=2, snapshot_every=4)
    watch = Watch(fleet, monkeypatch)
    try:
        fleet.start()
        half = BATCHES_PER_STREAM // 2
        submit(fleet, batches, range(half))
        fleet.drain(timeout=60.0)
        victim = fleet._shards[0].process
        stop_holding_reader_lock(victim, fleet._shards[0].in_q)
        submit(fleet, batches, range(half, BATCHES_PER_STREAM))
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=60.0)
        assert victim.exitcode == -signal.SIGKILL
        assert watch.respawns == []
        events, summary, exit_codes = finish(fleet, batches)
    except BaseException:
        fleet.shutdown(graceful=False)
        raise
    assert summary["restarts"] == 1
    [(sentinel, last_wait, _)] = watch.respawns
    assert sentinel == victim.sentinel
    assert last_wait is not None and sentinel in last_wait
    assert summary["divergences"] == 0
    assert exit_codes == {0: 0, 1: 0}
    assert events == oracle


@posix_signals
def test_no_respawn_once_shutdown_begins(tmp_path, fixture_batches):
    fleet = make_fleet(fixture_batches, tmp_path, n_shards=2,
                       snapshot_every=4)
    try:
        fleet.start()
        victim = fleet._shards[1].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=60.0)
    finally:
        exit_codes = fleet.shutdown(graceful=True)
    assert exit_codes == {0: 0, 1: -signal.SIGKILL}
    assert fleet.summary()["restarts"] == 0
    assert worker_up(fleet, 1) == 0.0


def exited(pid):
    """Whether process *pid* is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@posix_signals
@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process states from /proc")
def test_worker_exits_when_its_supervisor_is_killed(tmp_path):
    # SIGKILL gives the supervisor no exit path, and the orphaned worker
    # holds a write end of its own input queue, so the queue never reads
    # end-of-file: the worker must see that its parent is gone.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    supervisor = subprocess.Popen(
        [sys.executable, "-c", ORPHANING_SUPERVISOR, str(tmp_path)],
        cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        worker = int(supervisor.stdout.readline())
    finally:
        supervisor.kill()
        supervisor.wait()
        supervisor.stdout.close()  # the worker holds the write end
    deadline = time.monotonic() + 2.0
    while not exited(worker) and time.monotonic() < deadline:
        time.sleep(0.02)
    gone = exited(worker)
    if not gone:
        os.kill(worker, signal.SIGKILL)
    assert gone


def test_shutdown_reaches_a_worker_blocked_on_its_ack_pipe(
        tmp_path, fixture_batches, monkeypatch):
    # Rounds go straight onto the input queue and no ack is read, so
    # the worker fills its ack pipe, blocks in a send and leaves the
    # queue full.  Shutdown must read the acks before it queues its
    # message; otherwise the message is dropped and the worker is
    # still running when the graceful wait ends.
    fleet = make_fleet(["lane0"], tmp_path, n_shards=1, queue_capacity=8,
                       dispatch_timeout=5.0)
    stragglers = []
    real_reap = fleet._reap

    def recording_reap(timeout):
        left = real_reap(timeout)
        stragglers.append(left)
        return left

    monkeypatch.setattr(fleet, "_reap", recording_reap)
    samples = np.concatenate(fixture_batches["lane0"])
    try:
        fleet.start()
        in_q = fleet._shards[0].in_q
        for seq in range(len(samples) // 16):
            try:
                in_q.put(Round((Batch(
                    seq=seq, stream="lane0", stream_seq=seq,
                    samples=samples[16 * seq:16 * (seq + 1)]),)),
                    timeout=2.0)
            except queue.Full:
                break
        else:
            pytest.fail("the worker never blocked on its ack pipe")
    finally:
        exit_codes = fleet.shutdown(graceful=True, timeout=60.0)
    assert stragglers[0] == []
    assert exit_codes == {0: 0}
