"""Scaling wall times to the reference speed.  Run with `python3 -m pytest perfbench/tests`."""
import pace
import workloads as wl


def test_scale_uses_the_loop_times_near_the_call():
    p = pace.Pace()
    # a sample every 0.1 s; twice as slow before t=5 as after
    for i in range(100):
        p.stamps.append(i / 10)
        p.seconds.append(2 * pace.REFERENCE_S if i < 50 else pace.REFERENCE_S)
    assert p.scale(2.05, 2.55) == 0.5
    assert p.scale(7.05, 7.55) == 1.0
    # a call across the change: the two sides weigh the same
    assert abs(p.scale(4.95, 5.05) - 1 / 1.5) < 1e-12
    # with no sample after the call, the nearest before it are used
    assert p.scale(100.0, 101.0) == 1.0
    # a call longer than the window is not scaled
    assert p.scale(1.0, 1.1 + pace.WINDOW_S) == 1.0


def test_reference_loop_is_timed():
    p = pace.Pace()
    p.burst(0.02)
    assert len(p.seconds) >= 1 and all(s > 0 for s in p.seconds)
    assert len(p.stamps) == len(p.seconds)


def test_round_scales_every_call():
    class Counting(wl.Workload):
        def setup(self):
            self.ops = [wl.Op("sum", n, lambda n=n: sum(range(n))) for n in (10, 1000)]

        def problem(self, op, out):
            return None if out == sum(range(op.case)) else "wrong sum"

    w = Counting(0)
    w.setup()
    w.run_round()
    w.run_round()
    for op in w.ops:
        assert len(op.scaled) == len(op.seconds) == 2 * w.passes
        assert all(s > 0 for s in op.scaled)
    assert w.check().problems == []
