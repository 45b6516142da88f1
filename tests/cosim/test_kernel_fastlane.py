"""Differential tests for the kernel's same-time scheduling fast lane.

The zero-delay FIFO lane bypasses heapq for the dominant pin-level
case, but the kernel's determinism contract — simultaneous events fire
in the order they were scheduled, globally by ``(time, seq)`` — must
hold bit-for-bit.  A ``_HeapOnlySimulator`` that routes *everything*
through the heap (the pre-fast-lane behavior) is the reference;
hypothesis-generated workloads mixing zero and non-zero delays, event
fires, joins, interrupts, and resource contention must produce
identical resume logs, times, and activation counts on both.
"""

import heapq

import pytest
from hypothesis import (
    HealthCheck, example, given, settings, strategies as st)

from repro.cosim.kernel import (
    AnyOf,
    HangDetected,
    Interrupt,
    Resource,
    SimulationError,
    Simulator,
    Watchdog,
)
from repro.cosim.trace import RESUME, Tracer

COMMON = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class _HeapOnlySimulator(Simulator):
    """Reference scheduler: every wakeup pays full heapq churn."""

    def _schedule(self, delay, proc, value, token):
        self._seq += 1
        heapq.heappush(
            self._queue, (self.now + delay, self._seq, proc, value, token)
        )


# ----------------------------------------------------------------------
# workload generator: per-process op scripts over shared events/resource
# ----------------------------------------------------------------------
N_EVENTS = 4

op_st = st.one_of(
    st.tuples(st.just("timeout"),
              st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.5, 7.0])),
    st.tuples(st.just("wait"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("fire"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("anyof"), st.integers(0, N_EVENTS - 2)),
    st.tuples(st.just("join"), st.integers(0, 3)),
    st.tuples(st.just("interrupt"), st.integers(0, 3)),
    st.tuples(st.just("resource"),
              st.sampled_from([0.0, 0.0, 1.0])),
)

scripts_st = st.lists(
    st.lists(op_st, min_size=1, max_size=6), min_size=1, max_size=5)


def build_workload(sim_cls, scripts, spinner=None):
    """Spawn the scripted workload; return ``(sim, log)`` unrun.

    ``spinner(sim)``, if given, makes one more process, spawned last
    and reachable by the "join" and "interrupt" ops like the others.
    """
    sim = sim_cls()
    events = [sim.event(f"e{i}") for i in range(N_EVENTS)]
    resource = Resource(sim, "res")
    procs = []
    log = []

    def body(pid, script):
        for n, (op, arg) in enumerate(script):
            log.append((pid, n, op, sim.now, sim.activations))
            if op == "timeout":
                got = yield sim.timeout(arg, value=(pid, n))
                log.append((pid, n, "woke", sim.now, got))
            elif op == "wait":
                if not events[arg].triggered:
                    got = yield events[arg]
                    log.append((pid, n, "got", sim.now, got))
            elif op == "fire":
                if not events[arg].triggered:
                    events[arg].succeed((pid, n))
            elif op == "anyof":
                pair = yield AnyOf(events[arg:arg + 2])
                log.append((pid, n, "any", sim.now, pair[1]))
            elif op == "join":
                if arg < len(procs) and procs[arg] is not None:
                    got = yield procs[arg]
                    log.append((pid, n, "joined", sim.now, got))
            elif op == "interrupt":
                if arg < len(procs) and procs[arg] is not None:
                    procs[arg].interrupt(cause=(pid, n))
            elif op == "resource":
                try:
                    yield from resource.acquire()
                except Interrupt:
                    log.append((pid, n, "intr", sim.now, None))
                    continue
                yield sim.timeout(arg)
                resource.release()
        return pid

    for pid, script in enumerate(scripts):
        # pad procs as we go so "join"/"interrupt" targets resolve the
        # same way on both simulators
        procs.append(None)
        gen = body(pid, script)

        def wrapper(gen=gen, pid=pid):
            try:
                result = yield from gen
            except Interrupt:
                log.append((pid, -1, "killed", sim.now, None))
                result = None
            return result

        procs[pid] = sim.process(wrapper(), name=f"p{pid}")
    if spinner is not None:
        procs.append(sim.process(spinner(sim), name="spinner"))
    return sim, log


def run_workload(sim_cls, scripts):
    """Execute the scripted workload; return the full resume log."""
    sim, log = build_workload(sim_cls, scripts)
    final = sim.run()
    return log, final, sim.activations, sim.now


class TestSchedulingDifferential:
    @settings(max_examples=80, **COMMON)
    @given(scripts=scripts_st)
    def test_fast_lane_matches_heap_only(self, scripts):
        fast = run_workload(Simulator, scripts)
        ref = run_workload(_HeapOnlySimulator, scripts)
        assert fast == ref

    def test_simultaneous_events_fire_in_scheduling_order(self):
        """The documented determinism contract, pinned explicitly: a
        zero-delay wakeup scheduled *after* a timed wakeup landing at
        the same instant fires second (global (time, seq) order)."""
        for sim_cls in (Simulator, _HeapOnlySimulator):
            sim = sim_cls()
            order = []

            def timed():
                yield sim.timeout(5.0)
                order.append("timed")

            def firer():
                yield sim.timeout(5.0)  # same instant, later seq
                order.append("firer")

            sim.process(timed(), name="timed")
            sim.process(firer(), name="firer")
            sim.run()
            assert order == ["timed", "firer"], sim_cls.__name__

    def test_zero_delay_storm_interleaves_with_heap_entries(self):
        """Zero-delay chains must not starve or overtake a same-time
        heap entry scheduled earlier."""

        def chain(sim, log, n):
            for i in range(n):
                log.append(("chain", i, sim.now))
                yield sim.timeout(0.0)

        def sleeper(sim, log):
            yield sim.timeout(0.0)
            log.append(("sleeper", 0, sim.now))
            yield sim.timeout(3.0)
            log.append(("sleeper", 1, sim.now))

        logs = []
        for sim_cls in (Simulator, _HeapOnlySimulator):
            sim = sim_cls()
            log = []
            sim.process(chain(sim, log, 6), name="chain")
            sim.process(sleeper(sim, log), name="sleeper")
            sim.run()
            logs.append((log, sim.activations, sim.now))
        assert logs[0] == logs[1]


class TestRunHorizon:
    def make(self, sim_cls):
        sim = sim_cls()

        def ticker():
            while True:
                yield sim.timeout(0.0)
                yield sim.timeout(2.0)

        sim.process(ticker(), name="ticker")
        return sim

    @pytest.mark.parametrize("sim_cls", [Simulator, _HeapOnlySimulator])
    def test_until_stops_at_horizon(self, sim_cls):
        sim = self.make(sim_cls)
        assert sim.run(until=7.0) == 7.0
        assert sim.now == 7.0

    @pytest.mark.parametrize("sim_cls", [Simulator, _HeapOnlySimulator])
    def test_until_in_past_never_rewinds(self, sim_cls):
        sim = self.make(sim_cls)
        sim.run(until=6.0)
        assert sim.run(until=2.0) == 6.0
        assert sim.now == 6.0

    @pytest.mark.parametrize("watched", [False, True])
    @pytest.mark.parametrize("sim_cls", [Simulator, _HeapOnlySimulator])
    def test_stale_head_does_not_let_run_pass_until(self, sim_cls,
                                                    watched):
        """A timeout abandoned by an interrupt stays queued at t=5 as a
        stale entry; it must be dropped before the horizon check, not
        let ``run(until=10)`` resume the live t=50 wakeup behind it."""
        sim = sim_cls()
        woke = []

        def sleeper():
            try:
                yield sim.timeout(5.0)
            except Interrupt:
                yield sim.timeout(50.0)
                woke.append(sim.now)

        proc = sim.process(sleeper(), name="sleeper")

        def kicker():
            proc.interrupt()
            yield sim.timeout(0.0)

        sim.process(kicker(), name="kicker")
        watchdog = Watchdog() if watched else None
        assert sim.run(until=10.0, watchdog=watchdog) == 10.0
        assert sim.now == 10.0
        assert woke == []
        assert sim.run(watchdog=watchdog) == 50.0
        assert woke == [50.0]

    @settings(max_examples=40, **COMMON)
    @given(scripts=scripts_st,
           t1=st.sampled_from([0.0, 1.0, 2.5, 4.0, 7.0, 9.5]),
           extra=st.sampled_from([0.0, 0.5, 3.0, 7.0, 20.0]))
    def test_split_run_matches_single_run(self, scripts, t1, extra):
        """Running to T1 and then to T2 resumes exactly what one run to
        T2 does, and nothing after the horizon."""
        t2 = t1 + extra
        outcomes = []
        for sim_cls in (Simulator, _HeapOnlySimulator):
            split, split_log = build_workload(sim_cls, scripts)
            split.run(until=t1)
            split.run(until=t2)
            whole, whole_log = build_workload(sim_cls, scripts)
            whole.run(until=t2)
            assert split_log == whole_log
            assert (split.now, split.activations) == (
                whole.now, whole.activations)
            assert whole.now <= t2
            assert all(entry[3] <= t2 for entry in whole_log)
            outcomes.append((whole_log, whole.now, whole.activations))
        assert outcomes[0] == outcomes[1]

    def test_until_now_with_ready_entries_fires_them(self):
        """Entries in the zero-delay lane sit at the current time, so a
        horizon of exactly `now` must still let them fire."""
        sim = Simulator()
        fired = []

        def proc():
            yield sim.timeout(0.0)
            fired.append(sim.now)

        sim.process(proc(), name="p")
        sim.run(until=0.0)
        assert fired == [0.0]


class TestWatchdogFastLane:
    def test_spin_hang_detected_at_identical_point(self):
        """A zero-delay spin loop lives entirely in the fast lane; the
        watchdog must still see every resumption and both schedulers
        must kill the run at the same activation count."""
        counts = []
        for sim_cls in (Simulator, _HeapOnlySimulator):
            sim = sim_cls()

            def spin():
                while True:
                    yield sim.timeout(0.0)

            sim.process(spin(), name="spinner")
            with pytest.raises(HangDetected) as err:
                sim.run(watchdog=Watchdog(max_stalled_activations=500))
            assert "spinner" in str(err.value)
            counts.append(sim.activations)
        assert counts[0] == counts[1]

    @settings(max_examples=25, **COMMON)
    @given(scripts=scripts_st)
    def test_watched_run_matches_unwatched(self, scripts):
        """A generous watchdog must not perturb scheduling at all."""
        plain = run_workload(Simulator, scripts)
        watched = run_workload_watched(scripts)
        assert plain == watched


def spinner_after(start, declared, resumes):
    """A spinner body: sleep ``start``, then spin forever, on
    ``spin()`` if ``declared`` and on ``timeout(0.0)`` otherwise.
    Each resumption while spinning appends ``now`` to ``resumes``."""

    def spinner(sim):
        yield sim.timeout(start)
        while True:
            yield sim.spin() if declared else sim.timeout(0.0)
            resumes.append(sim.now)

    return spinner


def run_spin_workload(sim_cls, declared, scripts, start, **run_kwargs):
    """Run a workload plus a spinner; return what a caller can observe:
    the resume log, ``now``, ``activations``, the error's type and full
    message (``None`` if the run returned), and the spinner's own
    resumption times."""
    resumes = []
    sim, log = build_workload(
        sim_cls, scripts, spinner_after(start, declared, resumes))
    try:
        sim.run(**run_kwargs)
        error = None
    except SimulationError as exc:
        error = (type(exc), str(exc))
    return log, sim.now, sim.activations, error, resumes


spin_start_st = st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0])


class TestSpinClosedForm:
    """A watched run fast-forwards a declared spinner to its
    ``HangDetected``.  The oracle is brute force: a ``timeout(0.0)``
    spinner on the heap-only reference scheduler, whose ready lane is
    always empty, so the closed-form rule can never fire there."""

    @settings(max_examples=120, **COMMON)
    @given(scripts=scripts_st, start=spin_start_st,
           limit=st.integers(1, 60))
    # p0's second timeout lands at t=1 behind the spinner's: a live heap
    # entry due at `now` while the spinner's SPIN wakeup is the lone
    # ready entry
    @example(scripts=[[("timeout", 0.0), ("timeout", 1.0)],
                      [("timeout", 1.0)]],
             start=1.0, limit=50)
    def test_fast_forward_matches_brute_force(self, scripts, start,
                                              limit):
        fast = run_spin_workload(
            Simulator, True, scripts, start,
            watchdog=Watchdog(max_stalled_activations=limit))
        brute = run_spin_workload(
            _HeapOnlySimulator, False, scripts, start,
            watchdog=Watchdog(max_stalled_activations=limit))
        # everything but the skipped resumptions themselves
        assert fast[:4] == brute[:4]
        assert fast[4] == brute[4][:len(fast[4])]

    @settings(max_examples=40, **COMMON)
    @given(scripts=scripts_st, start=spin_start_st,
           limit=st.integers(1, 60))
    def test_wall_clock_budget_keeps_every_resumption(self, scripts,
                                                      start, limit):
        watchdog = Watchdog(max_stalled_activations=limit,
                            wall_clock_s=3600.0)
        fast = run_spin_workload(Simulator, True, scripts, start,
                                 watchdog=watchdog)
        brute = run_spin_workload(_HeapOnlySimulator, False, scripts,
                                  start, watchdog=watchdog)
        assert fast == brute

    @settings(max_examples=40, **COMMON)
    @given(scripts=scripts_st,
           start=st.sampled_from([0.5, 1.0, 2.5, 7.0]),
           gap=st.sampled_from([0.25, 0.5]))
    def test_unwatched_run_stops_at_the_horizon(self, scripts, start,
                                                gap):
        until = start - gap
        fast = run_spin_workload(Simulator, True, scripts, start,
                                 until=until)
        brute = run_spin_workload(_HeapOnlySimulator, False, scripts,
                                  start, until=until)
        assert fast == brute
        assert fast[1] == until
        assert fast[4] == []

    def test_lone_spinner_is_not_run_to_the_limit(self):
        """The rule does fire: a lone declared spinner resumes once
        while spinning, yet reports the brute-force count and message."""
        outcomes = []
        for sim_cls, declared in ((Simulator, True),
                                  (_HeapOnlySimulator, False)):
            outcomes.append(run_spin_workload(
                sim_cls, declared, [[("timeout", 1.0)]], 2.5,
                watchdog=Watchdog(max_stalled_activations=4000)))
        fast, brute = outcomes
        assert fast[:4] == brute[:4]
        assert fast[3][0] is HangDetected
        assert "after 4000 activations at t=2.5" in fast[3][1]
        assert len(fast[4]) == 1
        assert len(brute[4]) == 4000

    def test_tracer_sees_every_resumption(self):
        """A kernel tracer observes each resumption, so with one
        attached the spinner runs all ``limit`` stalled resumes; the
        verdict is the one the untraced, fast-forwarded run reaches."""
        limit = 300
        outcomes = []
        for tracer in (Tracer(), None):
            sim = Simulator(tracer=tracer)
            resumes = []
            sim.process(spinner_after(1.0, True, resumes)(sim),
                        name="spinner")
            with pytest.raises(HangDetected) as err:
                sim.run(watchdog=Watchdog(max_stalled_activations=limit))
            outcomes.append((sim.activations, sim.now, str(err.value)))
            if tracer is not None:
                traced_resumes = resumes
                records = tracer.records_of(RESUME)
        assert outcomes[0] == outcomes[1]
        assert len(traced_resumes) == limit
        # the start at t=0, the wakeup at t=1, then every spin
        assert [r.time for r in records] == [0.0] + [1.0] * (limit + 1)
        assert {r.name for r in records} == {"spinner"}


def run_workload_watched(scripts):
    """run_workload, but through the watched run loop."""
    original_run = Simulator.run

    def watched_run(self, until=None, watchdog=None):
        return original_run(
            self, until,
            watchdog or Watchdog(max_stalled_activations=10_000_000))

    Simulator.run = watched_run
    try:
        return run_workload(Simulator, scripts)
    finally:
        Simulator.run = original_run


class TestIntrospection:
    def test_repr_counts_both_lanes(self):
        sim = Simulator()

        def p():
            yield sim.timeout(0.0)
            yield sim.timeout(5.0)

        sim.process(p(), name="p")   # ready lane
        sim.process(p(), name="q")   # ready lane
        assert "pending=2" in repr(sim)

    def test_stalled_suspects_sees_ready_lane(self):
        sim = Simulator()

        def p():
            yield sim.timeout(0.0)

        sim.process(p(), name="zed")
        assert "zed" in sim._stalled_suspects()

    def test_slots_hold(self):
        """Event/Process carry no __dict__ anymore — attribute typos
        now fail loudly instead of silently growing per-object dicts."""
        sim = Simulator()
        event = sim.event("e")
        proc = sim.process((x for x in ()), name="p")
        for obj in (event, proc):
            with pytest.raises(AttributeError):
                obj.no_such_attribute = 1
            assert not hasattr(obj, "__dict__")
