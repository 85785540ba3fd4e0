"""The engine registry: every way the repo runs the detectors.

``scalar`` is the reference: one :class:`OnlineSession` per lane.
``batch`` steps all lanes in lockstep in one :class:`BatchSession`;
``worker`` hands them to an in-process :class:`ShardWorker` as serve
deliveries, one ``Round`` message at a time; ``fleet`` serves them
through a multi-process :class:`FleetSupervisor`.  Each engine runs a
scenario in a scratch directory and returns a :class:`Run` holding what
it exposes.
"""

import pickle
from dataclasses import dataclass, field
from typing import Any

from repro.batch import BatchSession
from repro.errors import RegionError
from repro.monitor.online import OnlineSession
from repro.serve import (SNAPSHOT_KEEP, EventCursor, Round, ShardWorker,
                         extract_lane_events, run_fleet)
from repro.serve.snapshot import SnapshotStore
from repro.telemetry.bus import EventBus
from repro.telemetry.sinks import InMemorySink


@dataclass
class Run:
    """What one engine produced for one scenario, per lane name."""

    events: dict                     # canonical event records
    cursors: dict | None = None      # extraction cursors
    lanes: list | None = None        # in-process lanes, in lane order
    sinks: list | None = None        # their telemetry sinks
    observations: bool = True        # detector observation logs whole
    churn: list = field(default_factory=list)
    deltas: dict | None = None       # per fed chunk: (events, intervals)
    steps: dict | None = None        # intervals completed in each round
    acks: list | None = None
    deliveries: list | None = None
    state: tuple | None = None       # worker: next stream_seqs, stash,
    #                                  contiguous delivery high water
    extra: Any = None                # engine-specific: session, summary


def traced_bus() -> EventBus:
    bus = EventBus()
    bus.attach(InMemorySink())
    return bus


def churn(scenario, round_index, lane_index, monitor, log) -> None:
    """Apply *scenario*'s mutations due after this round to one lane.

    A mutation picks its region among the monitor's own live (reset,
    quarantine) or quarantined (release) regions, so twins that agree
    pick alike; each outcome is logged for the comparator.
    """
    for at, lane, action, pick in scenario.churn:
        if (at, lane) != (round_index, lane_index):
            continue
        pool = (monitor.quarantined_regions() if action == "release"
                else monitor.live_regions())
        if not pool:
            continue
        rid = pool[pick % len(pool)].rid
        try:
            getattr(monitor, "reset_detector" if action == "reset"
                    else action)(rid)
            log.append((at, lane, action, rid, True))
        except RegionError:
            # e.g. releasing a region whose span re-formed meanwhile
            log.append((at, lane, action, rid, False))


def run_scalar(scenario, directory=None) -> Run:
    """One scalar session per lane, fed chunk by chunk."""
    run = Run(events={}, cursors={}, lanes=[], sinks=[], deltas={},
              steps={})
    twins: dict = {}
    for index, (name, lane, feed) in enumerate(
            zip(scenario.names, scenario.lanes, scenario.feeds())):
        key = (lane, tuple(None if c is None else c.size for c in feed))
        if scenario.churn or key not in twins:
            session = OnlineSession(**scenario.session_options(),
                                    telemetry=traced_bus())
            cursor, deltas, steps = EventCursor(), [], []
            for round_index, chunk in enumerate(feed):
                if chunk is None:
                    steps.append(0)
                else:
                    steps.append(session.feed_many(chunk))
                    events, cursor = extract_lane_events(session, cursor)
                    deltas.append((events, steps[-1]))
                churn(scenario, round_index, index, session.monitor,
                      run.churn)
            twins[key] = session, deltas, steps
        session, run.deltas[name], run.steps[name] = twins[key]
        run.events[name], run.cursors[name] = extract_lane_events(session)
        run.lanes.append(session)
        run.sinks.append(session.telemetry.sinks[-1])
    run.churn.sort()
    return run


def run_batch(scenario, directory=None) -> Run:
    """One batch session, a lane per lane, stepped once per round."""
    session = BatchSession(**scenario.session_options())
    for name in scenario.names:
        session.add_lane(telemetry=traced_bus(), name=name)
    steps: dict = {name: [] for name in scenario.names}
    log: list = []
    for round_index, chunks in enumerate(zip(*scenario.feeds())):
        for lane, chunk in zip(session.lanes, chunks):
            if chunk is not None:
                lane.feed_many(chunk)
        for lane, completed in zip(session.lanes, session.run()):
            steps[lane.name].append(completed)
        for index, lane in enumerate(session.lanes):
            churn(scenario, round_index, index, lane.monitor, log)
        if round_index == scenario.discard_at:
            session.discard_observation_history()
        if round_index == scenario.pickle_at:
            # A pickle (a shard snapshot) leaves the regrouper's cached
            # plan behind: the live session keeps it, the restored one
            # rebuilds it.
            restored = pickle.loads(pickle.dumps(session))
            assert session._regrouper._plan is not None
            assert restored._regrouper._plan is None
            session = restored
    events, cursors = {}, {}
    for lane in session.lanes:
        events[lane.name], cursors[lane.name] = extract_lane_events(lane)
    return Run(events=events, cursors=cursors, lanes=session.lanes,
               sinks=[lane.telemetry.sinks[-1] for lane in session.lanes],
               observations=scenario.discard_at is None, churn=sorted(log),
               steps=steps, extra=session)


def run_worker(scenario, directory) -> Run:
    """An in-process shard worker stepping the lanes' batches as
    ``Round`` messages, snapshotted and restored where the scenario
    says."""
    config = scenario.serve_config()

    def start() -> ShardWorker:
        store = SnapshotStore(directory, shard_id=0, keep=SNAPSHOT_KEEP)
        return ShardWorker(0, scenario.names, config, store)

    rounds, snapshot_at = scenario.deliveries()
    worker, acks = start(), []
    for index, batches in enumerate(rounds + [[]]):
        if index == snapshot_at:
            worker.take_snapshot()
            worker = start()
        answer = worker.handle_round(Round(tuple(batches)))
        assert answer.shard == 0
        acks.extend(answer.acks)
    lanes = worker.session.lanes
    return Run(events={lane.name: extract_lane_events(lane)[0]
                       for lane in lanes},
               cursors=worker.cursors, lanes=lanes,
               observations=snapshot_at is None,  # snapshots discard them
               acks=acks, deliveries=[m for r in rounds for m in r],
               state=(worker.stream_seqs,
                      {s: p for s, p in worker.stash.items() if p},
                      worker.seen_through))


def run_serving_fleet(scenario, directory) -> Run:
    """The lanes' batches served by a multi-process fleet."""
    events, summary, exit_codes = run_fleet(
        scenario.serve_config(), scenario.batches(), str(directory),
        faults=scenario.faults, timeout=120.0)
    return Run(events=events, extra=(summary, exit_codes))


ENGINES = {"scalar": run_scalar, "batch": run_batch, "worker": run_worker,
           "fleet": run_serving_fleet}

