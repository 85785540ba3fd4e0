"""The one comparator: an engine's run against the scalar reference.

Every engine's per-lane event records must equal the scalar pipeline's.
Engines that run in process hand over their lanes too, and each must
match its scalar session on everything a session exposes: counters,
pending samples, reports, watchdog actions, summary, telemetry, and the
state of every region detector and of the global detector.  The worker
is also held to the acks the delivery discipline owes.  The detector
comparators serve the bank suites as well.
"""

from repro.serve.messages import AppliedBatch, BatchAck


def _nan(value):
    """*value*, with NaN replaced by a marker equal to itself."""
    return "nan" if value != value else value


def _fields(obj, names):
    return tuple(getattr(obj, name) for name in names)


_LPD = ("state", "in_stable_phase", "active_intervals", "stable_intervals",
        "effective_threshold", "events")
_GPD = ("state", "in_stable_phase", "intervals_seen", "events")
_STATS = ("intervals", "samples", "global_events", "local_events")


def _lpd_observation(o):
    return o.interval_index, o.had_samples, o.state, o.event, _nan(o.r_value)


def _gpd_observation(o):
    band = None if o.band is None else (o.band.expectation, o.band.sd)
    return (o.interval_index, _nan(o.centroid_value), band,
            _nan(o.drift_ratio), o.state, o.event)


def _report(r):
    return (r.interval_index, r.ucr_fraction, r.events, r.region_samples,
            r.pruned)


def assert_lpd_identical(scalar, row, observations=True):
    """A local detector row: state, counters, r, stable set, events."""
    assert _fields(scalar, _LPD) == _fields(row, _LPD)
    assert _nan(scalar.last_r) == _nan(row.last_r)
    frozen, other = scalar.stable_set(), row.stable_set()
    assert (frozen is None) == (other is None)
    assert frozen is None or frozen.tobytes() == other.tobytes()
    if observations:
        assert [_lpd_observation(o) for o in scalar.observations] \
            == [_lpd_observation(o) for o in row.observations]


def assert_gpd_identical(scalar, row, observations=True):
    """A global detector row: state, counters, events, stable time."""
    assert _fields(scalar, _GPD) == _fields(row, _GPD)
    assert scalar.stable_interval_count() == row.stable_interval_count()
    assert scalar.stable_time_fraction() == row.stable_time_fraction()
    if observations:
        assert [_gpd_observation(o) for o in scalar.observations] \
            == [_gpd_observation(o) for o in row.observations]


def assert_monitors_identical(scalar, monitor, observations=True):
    """Reports, regions, every region's detector, statistics, ledger."""
    assert scalar.intervals_processed == monitor.intervals_processed
    assert [_report(r) for r in scalar.reports] \
        == [_report(r) for r in monitor.reports]
    rids = sorted(region.rid for region in scalar.all_regions())
    assert rids == sorted(region.rid for region in monitor.all_regions())
    for rid in rids:
        assert_lpd_identical(scalar.detector(rid), monitor.detector(rid),
                             observations)
    assert scalar.phase_change_counts() == monitor.phase_change_counts()
    assert scalar.stable_time_fractions() == monitor.stable_time_fractions()
    assert scalar.ledger == monitor.ledger


def assert_lanes_identical(scalar, lane, observations=True):
    """One in-process lane against its scalar session."""
    assert _fields(scalar.stats, _STATS) == _fields(lane.stats, _STATS)
    assert scalar.pending_samples == lane.pending_samples
    assert [_report(r) for r in scalar.reports] \
        == [_report(r) for r in lane.reports]
    assert scalar.watchdog_events == lane.watchdog_events
    assert scalar.summary() == lane.summary()
    assert (scalar.monitor is None) == (lane.monitor is None)
    if scalar.monitor is not None:
        assert_monitors_identical(scalar.monitor, lane.monitor, observations)
    assert (scalar.gpd is None) == (lane.gpd is None)
    if scalar.gpd is not None:
        assert_gpd_identical(scalar.gpd, lane.gpd, observations)


def expected_acks(reference, deliveries):
    """The acks a worker owes *deliveries*.

    A repeat is acked with nothing applied, an early arrival is parked,
    and the arrival that fills a gap applies itself and every parked
    batch behind it; each applied batch carries the scalar pipeline's
    event delta for that chunk.
    """
    next_seq = dict.fromkeys(reference.deltas, 0)
    parked: dict = {name: set() for name in reference.deltas}
    acks = []
    for message in deliveries:
        name, applied = message.stream, []
        if message.stream_seq >= next_seq[name]:
            parked[name].add(message.stream_seq)
        while next_seq[name] in parked[name]:
            parked[name].remove(next_seq[name])
            applied.append(AppliedBatch(
                name, next_seq[name], *reference.deltas[name][next_seq[name]]))
            next_seq[name] += 1
        acks.append(BatchAck(shard=0, seq=message.seq, applied=tuple(applied)))
    return acks


def assert_conforms(reference, run):
    """*run* against the scalar *reference*, on all that *run* exposes."""
    assert run.events == reference.events
    assert run.churn == reference.churn
    if run.steps is not None:
        assert run.steps == reference.steps
    if run.cursors is not None:
        assert run.cursors == reference.cursors
    if run.lanes is not None:
        assert len(run.lanes) == len(reference.lanes)
        for scalar, lane in zip(reference.lanes, run.lanes):
            assert_lanes_identical(scalar, lane, run.observations)
    if run.sinks is not None:
        assert [sink.events for sink in run.sinks] \
            == [sink.events for sink in reference.sinks]
    if run.acks is not None:
        assert run.acks == expected_acks(reference, run.deliveries)
        assert run.state == (
            {name: len(deltas) for name, deltas in reference.deltas.items()},
            {}, len(run.deliveries) - 1)
