"""Callbacks that return their successor's tick.

An event callback may return the tick of its own successor instead of
scheduling it; the drain loop runs the successor at once when nothing
else is due first, and pushes it otherwise. The refresh-window stream
chains this way.

* **Same run as the heap.** A window stream mixed with foreign events
  (one-shot, scheduled from callbacks, chained from a reserved block of
  sequence numbers, and returning chains with equal-tick successors)
  fires in the same order, at the same clock readings and with the same
  ``step``/``run``/``run_until`` counts as a reference drain that pushes
  every successor onto the heap.
* **Bounds.** ``run_until(t)`` never fires a window past ``t``,
  ``step()`` fires exactly one, and ``max_events`` counts chained
  windows.
* **Guards.** A consumer that leaves the clock past its successor
  raises and names the callback; a ``functools.partial``-wrapped
  callback (as the end-to-end tracer binds them) still chains.

Tier-1 runs a short budget; the ``fuzz``-marked twin runs the long one
of :mod:`tests.hypothesis_settings`.
"""

import heapq
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.device import DDR5_32GB, timings_for_device
from repro.dram.refresh import RefreshScheduler, make_refresh_policy
from repro.dram.refresh_policy import REFRESH_POLICIES
from repro.errors import ConfigError
from repro.sim import EventScheduler, SimClock, ns_to_ticks, ticks_to_ns
from tests.hypothesis_settings import fuzz_settings

TIMINGS = timings_for_device(DDR5_32GB)


def _refresh(policy_name):
    return RefreshScheduler(
        DDR5_32GB,
        TIMINGS,
        policy=make_refresh_policy(policy_name, DDR5_32GB, TIMINGS),
    )


def reference_drain(events, limit=None, budget=None):
    """The drain as the heap alone runs it: every successor a callback
    returns is pushed through ``schedule_at_ticks`` and popped again."""
    heap, clock = events._heap, events.clock
    fired = 0
    while heap and (budget is None or fired < budget):
        if limit is not None and heap[0][0] > limit:
            break
        ticks, _, fn = heapq.heappop(heap)
        assert ticks >= clock.now_ticks()
        clock.set_ticks(ticks)
        successor = fn()
        fired += 1
        if successor is not None:
            events.schedule_at_ticks(successor, fn)
    return fired


# -- same run as the heap ------------------------------------------------------

#: A foreign event's place: (window position, tick offset from its start).
_places = st.tuples(st.integers(0, 23), st.integers(-2, 2))
#: A chain: place, links after the first, step between links (a choice
#: of 0, 1 tick, half a tREFI or one tREFI; 0 makes equal-tick ties).
_chains = st.lists(
    st.tuples(_places, st.integers(0, 4), st.integers(0, 3)), max_size=3
)

_mixes = st.fixed_dictionaries({
    "policy": st.sampled_from(REFRESH_POLICIES),
    "span": st.integers(1, 24),
    # Per delivered window: None (the next one) or a skip-ahead offset.
    "answers": st.lists(
        st.one_of(st.none(), st.integers(-1, 4)), max_size=24
    ),
    # Window positions whose consumer schedules a foreign event at its
    # own tick (a tie with anything already queued there).
    "inside": st.sets(st.integers(0, 23), max_size=6),
    "one_shots": st.lists(_places, max_size=8),
    "scheduled": _chains,
    "reserved": _chains,
    "returning": _chains,
    # Drain calls before a final run(): ("until", place), ("step",) or
    # ("run", max_events).
    "plan": st.lists(
        st.one_of(
            st.tuples(st.just("until"), _places),
            st.tuples(st.just("step")),
            st.tuples(st.just("run"), st.integers(0, 5)),
        ),
        max_size=6,
    ),
})


def _drive(case, reference):
    """Build the case's schedule on a fresh scheduler and drain it by the
    case's plan; returns the fired log, each drain call's count, the
    final clock and the next free sequence number."""
    refresh = _refresh(case["policy"])
    start_ticks = refresh.policy.start_ticks
    trefi_ticks = refresh.policy.trefi_ticks
    steps = (0, 1, trefi_ticks // 2, trefi_ticks)
    clock = SimClock()
    events = EventScheduler(clock=clock)
    log = []
    windows = []

    def at(place):
        position, offset = place
        return max(0, start_ticks(position) + offset)

    def note(tag):
        return lambda: log.append((tag, clock.now_ticks()))

    def on_window(index):
        n = len(windows)
        windows.append(index)
        log.append(("window", index, clock.now_ticks()))
        with clock.scoped():  # modelled work in a borrowed timeline
            clock.set_ticks(clock.now_ticks() + trefi_ticks)
        if index in case["inside"]:
            events.schedule_at_ticks(
                clock.now_ticks(), note(("inside", index))
            )
        answers = case["answers"]
        if n < len(answers) and answers[n] is not None:
            return index + 1 + answers[n]
        return None

    events.schedule(0.0, note("first"))
    refresh.schedule_windows(
        events, ticks_to_ns(start_ticks(case["span"])), on_window
    )
    for n, place in enumerate(case["one_shots"]):
        events.schedule_at_ticks(at(place), note(("one_shot", n)))

    def link(n, k, length, step):
        log.append((("scheduled", n, k), clock.now_ticks()))
        if k < length:
            events.schedule_at_ticks(
                clock.now_ticks() + step,
                partial(link, n, k + 1, length, step),
            )

    def arrive(n, k, length, step, first):
        log.append((("reserved", n, k), clock.now_ticks()))
        if k < length:
            events.schedule_at_ticks(
                clock.now_ticks() + step,
                partial(arrive, n, k + 1, length, step, first),
                seq=first + k + 1,
            )

    def returning(n, length, step):
        k = 0

        def chained():
            nonlocal k
            log.append((("returning", n, k), clock.now_ticks()))
            k += 1
            return clock.now_ticks() + step if k <= length else None

        return chained

    for n, (place, length, step) in enumerate(case["scheduled"]):
        events.schedule_at_ticks(
            at(place), partial(link, n, 0, length, steps[step])
        )
    for n, (place, length, step) in enumerate(case["reserved"]):
        first = events.reserve(length + 1)
        events.schedule_at_ticks(
            at(place),
            partial(arrive, n, 0, length, steps[step], first),
            seq=first,
        )
    for n, (place, length, step) in enumerate(case["returning"]):
        events.schedule_at_ticks(at(place), returning(n, length, steps[step]))

    counts = []
    for call in case["plan"] + [("run", None)]:
        if call[0] == "until":
            t_ns = ticks_to_ns(at(call[1]))
            counts.append(
                reference_drain(events, limit=ns_to_ticks(t_ns))
                if reference
                else events.run_until(t_ns)
            )
        elif call[0] == "step":
            counts.append(
                reference_drain(events, budget=1) == 1
                if reference
                else events.step()
            )
        else:
            counts.append(
                reference_drain(events, budget=call[1])
                if reference
                else events.run(max_events=call[1])
            )
    assert len(events) == 0
    return log, counts, clock.now_ticks(), events.reserve(0)


def check_same_run_as_the_heap(case):
    log, counts, now, seq = _drive(case, reference=False)
    expected_log, expected_counts, expected_now, expected_seq = _drive(
        case, reference=True
    )
    assert log == expected_log
    assert counts == expected_counts
    assert now == expected_now
    assert seq == expected_seq
    ticks = [entry[-1] for entry in log]
    assert ticks == sorted(ticks)


@given(_mixes)
@settings(max_examples=60)
def test_chained_successors_run_as_the_heap_would(case):
    check_same_run_as_the_heap(case)


@pytest.mark.fuzz
@given(_mixes)
@fuzz_settings(max_examples=60)
def test_fuzz_chained_successors_run_as_the_heap_would(case):
    check_same_run_as_the_heap(case)


# -- bounds --------------------------------------------------------------------


def _stream(policy_name, windows):
    """A scheduler holding nothing but a ``windows``-long stream whose
    consumer logs each window's index."""
    refresh = _refresh(policy_name)
    clock = SimClock()
    events = EventScheduler(clock=clock)
    delivered = []
    count = refresh.schedule_windows(
        events,
        ticks_to_ns(refresh.policy.start_ticks(windows)),
        delivered.append,
    )
    assert count == windows
    return refresh.policy, clock, events, delivered


@pytest.mark.parametrize("policy_name", REFRESH_POLICIES)
def test_run_until_never_fires_a_window_past_its_horizon(policy_name):
    policy, clock, events, delivered = _stream(policy_name, 12)
    for position in (0, 2, 5, 11):
        for offset in (-1, 0, 1):
            limit = max(0, policy.start_ticks(position) + offset)
            events.run_until(ticks_to_ns(limit))
            assert delivered == [
                i for i in range(12) if policy.start_ticks(i) <= limit
            ]
            assert clock.now_ticks() == policy.start_ticks(delivered[-1])
            # The next window, if any, waits on the heap.
            assert len(events) == (len(delivered) < 12)


def test_step_fires_exactly_one_window():
    _, _, events, delivered = _stream("per-bank", 5)
    for n in range(5):
        assert events.step() is True
        assert delivered == list(range(n + 1))
        assert len(events) == (1 if n < 4 else 0)
    assert events.step() is False


def test_max_events_counts_chained_windows():
    _, _, events, delivered = _stream("all-bank", 10)
    assert events.run(max_events=4) == 4
    assert delivered == [0, 1, 2, 3]
    assert len(events) == 1
    assert events.run(max_events=0) == 0
    assert events.run() == 6
    assert delivered == list(range(10))


# -- guards --------------------------------------------------------------------


def test_consumer_leaving_the_clock_past_its_successor_raises():
    refresh = _refresh("all-bank")
    clock = SimClock()
    events = EventScheduler(clock=clock)

    def on_window(index):
        clock.advance_ns(2.5 * TIMINGS.trefi_ns)  # not in a borrowed timeline

    refresh.schedule_windows(events, 6 * TIMINGS.trefi_ns, on_window)
    with pytest.raises(
        ConfigError, match=r"schedule_windows\.<locals>\.fire.*in the past"
    ):
        events.step()


def test_returned_tick_behind_the_clock_names_the_callback():
    clock = SimClock()
    events = EventScheduler(clock=clock)

    def runaway():
        clock.advance_ns(10.0)
        return clock.now_ticks() - 1

    events.schedule(0.0, runaway)
    with pytest.raises(ConfigError, match="runaway"):
        events.run()


def test_partial_wrapped_callback_still_chains():
    refresh = _refresh("per-bank")
    clock = SimClock()
    events = EventScheduler(clock=clock)
    spans = []

    def call(name, fn):
        # A tracer's binding: record a span, pass the result through.
        spans.append(name)
        return fn()

    schedule_at_ticks = events.schedule_at_ticks
    events.schedule_at_ticks = lambda ticks, fn, **kwargs: schedule_at_ticks(
        ticks, partial(call, fn.__name__, fn), **kwargs
    )
    delivered = []
    count = refresh.schedule_windows(
        events,
        7 * TIMINGS.trefi_ns,
        delivered.append,
    )
    assert events.run() == count
    assert delivered == list(range(count))
    assert spans == ["fire"] * count
