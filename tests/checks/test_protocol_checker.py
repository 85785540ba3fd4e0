"""Protocol model checker: spec audits, exploration, mutation tests.

The load-bearing tests here are the mutations: corrupt exactly one
transition of the declarative spec (or one discipline of the real
worker) and the checker must report the violated safety invariant *by
name* — that is the property that makes the spec a specification
rather than documentation.
"""

from pathlib import Path

import numpy as np

from repro.checks.protocol import (INVARIANTS, PROTOCOL_PATH,
                                   audit_anchors, audit_message_surface,
                                   check_spec, cross_check_worker,
                                   drop_rule, enumerate_schedules,
                                   explore_model, mutate_rule,
                                   run_protocol_checker,
                                   serve_protocol_spec, small_scope)
from repro.serve.messages import BatchAck
from repro.serve.worker import ShardWorker, _Round

REPO_ROOT = Path(__file__).resolve().parents[2]


def rules_of(findings):
    return {f.rule for f in findings}


def violated_invariants(findings):
    """Invariant names quoted in protocol-invariant messages."""
    named = set()
    for finding in findings:
        if finding.rule != "protocol-invariant":
            continue
        for invariant in INVARIANTS:
            if f"invariant '{invariant}' violated" in finding.message:
                named.add(invariant)
    return named


class TestSpecStructure:
    def test_shipped_spec_is_well_formed(self):
        assert check_spec(serve_protocol_spec()) == []

    def test_dropping_a_delivery_rule_is_structural(self):
        spec = drop_rule(serve_protocol_spec(), "expected")
        findings = check_spec(spec)
        assert rules_of(findings) == {"protocol-spec-incomplete"}
        assert any("expected" in f.message for f in findings)
        assert all(f.path == PROTOCOL_PATH for f in findings)

    def test_surface_and_anchors_match_shipped_tree(self):
        spec = serve_protocol_spec()
        assert audit_message_surface(spec, REPO_ROOT) == []
        assert audit_anchors(spec, REPO_ROOT) == []

    def test_stale_anchor_is_reported(self):
        from dataclasses import replace
        spec = serve_protocol_spec()
        obligation = replace(spec.obligations[0],
                             anchor=spec.obligations[0].anchor.replace(
                                 "submit", "no_such_function"))
        spec = replace(spec, obligations=(obligation,)
                       + spec.obligations[1:])
        findings = audit_anchors(spec, REPO_ROOT)
        assert "protocol-anchor-missing" in rules_of(findings)


class TestScheduleSpace:
    def test_schedules_cover_dups_snapshots_and_crashes(self):
        scope = small_scope((2,))
        kinds = set()
        count = 0
        for steps in enumerate_schedules(scope):
            count += 1
            kinds.update(step.kind for step in steps)
        assert kinds == {"deliver", "dup", "snap", "crash"}
        # 2 messages: 2 perms x (1 + dup placements) x 3 cadences,
        # each with and without a crash at every position.
        assert count > 50

    def test_every_schedule_delivers_each_message_once(self):
        scope = small_scope((2, 1))
        for steps in enumerate_schedules(scope, snapshot_cadences=(0,),
                                         with_crash=False):
            delivered = [s.index for s in steps if s.kind == "deliver"]
            assert sorted(delivered) == [0, 1, 2]


class TestModelExploration:
    def test_shipped_spec_satisfies_all_invariants(self):
        assert explore_model(serve_protocol_spec(),
                             small_scope((2, 1))) == []

    def test_duplicate_reapplied_names_double_application(self):
        # Mutation: the duplicate guard applies instead of ack-empty.
        spec = mutate_rule(serve_protocol_spec(), "duplicate",
                           "apply-drain")
        findings = explore_model(spec, small_scope((2, 1)))
        named = violated_invariants(findings)
        assert "no-double-application" in named or \
            "ack-monotonicity" in named or \
            "replay-idempotence" in named
        assert findings  # and something was definitely reported

    def test_dropped_batch_names_sample_loss(self):
        # Mutation: expected deliveries are acked but never applied.
        spec = mutate_rule(serve_protocol_spec(), "expected",
                           "ack-empty")
        findings = explore_model(spec, small_scope((2, 1)))
        assert "no-sample-loss" in violated_invariants(findings)

    def test_discarded_early_arrival_names_sample_loss(self):
        # Mutation: early arrivals are dropped instead of stashed.
        spec = mutate_rule(serve_protocol_spec(), "early", "ack-empty")
        findings = explore_model(spec, small_scope((2, 1)))
        named = violated_invariants(findings)
        assert "no-sample-loss" in named or "replay-idempotence" in named

    def test_unexecutable_spec_is_flagged_not_crashed(self):
        spec = drop_rule(serve_protocol_spec(), "duplicate")
        findings = explore_model(spec, small_scope((2, 1)))
        assert "protocol-spec-incomplete" in rules_of(findings)


class DedupeSkippingWorker(ShardWorker):
    """A deliberately broken worker: the duplicate guard is gone, so a
    redelivered batch is applied again (the bug the protocol exists to
    rule out)."""

    def handle_batches(self, messages):
        round_ = _Round()
        keyed = []
        for message in messages:
            self._note_seq(message.seq)
            stream = message.stream
            applied = []
            expected = self.stream_seqs.get(stream, 0)
            if message.stream_seq > expected:
                self.stash.setdefault(stream, {})[message.stream_seq] = \
                    np.array(message.samples, dtype=np.int64)
            else:
                applied.append(self._apply(round_, stream,
                                           message.stream_seq,
                                           message.samples))
                parked = self.stash.get(stream)
                while parked:
                    up_next = self.stream_seqs[stream]
                    if up_next not in parked:
                        break
                    applied.append(self._apply(round_, stream, up_next,
                                               parked.pop(up_next)))
            keyed.append((message.seq, applied))
        if round_.staged:
            self._close_round(round_)
        return [BatchAck(shard=self.shard_id, seq=seq,
                         applied=tuple(round_.closed[key] for key in keys))
                for seq, keys in keyed]


class TestRealWorkerCrossCheck:
    def test_shipped_worker_matches_the_model(self):
        findings = cross_check_worker(serve_protocol_spec(),
                                      small_scope((2, 1)),
                                      snapshot_cadences=(0, 1))
        assert findings == [], "\n".join(f.message for f in findings)

    def test_dedupe_skipping_worker_is_caught_by_name(self):
        findings = cross_check_worker(
            serve_protocol_spec(), small_scope((2, 1)),
            snapshot_cadences=(0,),
            worker_factory=DedupeSkippingWorker)
        assert findings
        rules = rules_of(findings)
        named = violated_invariants(findings)
        # Either the divergence from the model or a violated invariant
        # (typically both) must be reported — with the invariant named.
        assert "protocol-impl-divergence" in rules or named
        assert named & {"no-double-application", "ack-monotonicity",
                        "replay-idempotence"}


class TestFullPass:
    def test_run_protocol_checker_is_clean_on_the_repo(self):
        findings = run_protocol_checker(REPO_ROOT)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_mutated_spec_fails_the_full_pass(self):
        spec = mutate_rule(serve_protocol_spec(), "expected",
                           "ack-empty")
        findings = run_protocol_checker(REPO_ROOT, spec=spec,
                                        cross_check=False)
        assert "no-sample-loss" in violated_invariants(findings)
