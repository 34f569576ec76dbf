"""Tests for workload trace recording, persistence and replay."""

import pytest

from repro.core.events import Event
from repro.core.subscription import Advertisement, Subscription
from repro.exceptions import WorkloadError
from repro.middleware.pleroma import Pleroma
from repro.network.topology import line
from repro.workloads.trace import Trace, TraceOp, TraceRecorder, TraceReplayer


def sample_trace():
    recorder = TraceRecorder()
    adv = Advertisement.of(attr0=(0, 1023))
    sub = Subscription.of(attr0=(0, 511))
    recorder.advertise(0.0, "h1", adv)
    recorder.subscribe(0.1, "h3", sub)
    recorder.publish(0.2, "h1", Event.of(event_id=1, attr0=100))
    recorder.publish(0.3, "h1", Event.of(event_id=2, attr0=900))
    recorder.unsubscribe(0.4, "h3", sub.sub_id)
    recorder.publish(0.5, "h1", Event.of(event_id=3, attr0=100))
    recorder.unadvertise(0.6, "h1", adv.adv_id)
    return recorder.trace()


class TestTraceModel:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            TraceOp(0.0, "frobnicate", "h1")
        with pytest.raises(WorkloadError):
            TraceOp(-1.0, "publish", "h1", Event.of(a=1))

    def test_recorder_numbers_unnumbered_requests(self):
        recorder = TraceRecorder()
        adv = Advertisement.of(attr0=(0, 1023))
        sub = Subscription.of(attr0=(0, 511))
        chosen = Subscription(filter=sub.filter, sub_id=40)
        recorder.advertise(0.0, "h1", adv)
        recorder.subscribe(0.1, "h3", sub)
        recorder.subscribe(0.2, "h2", chosen)
        assert (adv.adv_id, sub.sub_id, chosen.sub_id) == (1, 2, 40)
        ops = Trace.loads(recorder.trace().dumps()).ops
        assert [op.payload.adv_id for op in ops[:1]] == [1]
        assert [op.payload.sub_id for op in ops[1:]] == [2, 40]

    def test_time_ordering_enforced(self):
        recorder = TraceRecorder()
        recorder.publish(1.0, "h1", Event.of(a=1))
        with pytest.raises(WorkloadError):
            recorder.publish(0.5, "h1", Event.of(a=2))
        with pytest.raises(WorkloadError):
            Trace(
                ops=[
                    TraceOp(1.0, "publish", "h1", Event.of(a=1)),
                    TraceOp(0.0, "publish", "h1", Event.of(a=2)),
                ]
            )

    def test_duration(self):
        assert sample_trace().duration == 0.6
        assert Trace().duration == 0.0


class TestPersistence:
    def test_text_round_trip(self):
        trace = sample_trace()
        restored = Trace.loads(trace.dumps())
        assert len(restored) == len(trace)
        for a, b in zip(trace, restored):
            assert (a.time, a.kind, a.host) == (b.time, b.kind, b.host)
            assert a.payload == b.payload

    def test_file_round_trip(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "workload.jsonl"
        trace.save(path)
        restored = Trace.load(path)
        assert len(restored) == len(trace)

    def test_blank_lines_ignored(self):
        trace = sample_trace()
        padded = trace.dumps() + "\n\n"
        assert len(Trace.loads(padded)) == len(trace)


class TestReplay:
    def test_replay_drives_middleware(self):
        middleware = Pleroma(line(3), dimensions=1, max_dz_length=10)
        replayer = TraceReplayer(sample_trace())
        replayer.run(middleware)
        assert replayer.applied == 7
        # event 1 matched a live subscription; 2 missed the filter; 3 came
        # after the unsubscribe
        assert middleware.metrics.delivered == 1
        # the final unadvertise left the fabric clean
        assert middleware.total_flows_installed() == 0

    def test_replay_is_deterministic(self):
        def run():
            middleware = Pleroma(line(3), dimensions=1, max_dz_length=10)
            TraceReplayer(Trace.loads(sample_trace().dumps())).run(middleware)
            return [
                (r.host, r.event.event_id, round(r.deliver_time, 12))
                for r in middleware.metrics.records
            ]

        assert run() == run()

    def test_recorded_then_saved_then_replayed(self, tmp_path):
        """Full loop: record -> save -> load -> replay on fresh deployment."""
        path = tmp_path / "t.jsonl"
        sample_trace().save(path)
        middleware = Pleroma(line(3), dimensions=1, max_dz_length=10)
        TraceReplayer(Trace.load(path)).run(middleware)
        assert middleware.metrics.published == 3
