"""A compaction triggered from *inside* an event must not truncate the run.

``Simulator.run``/``run_before``/``run_batched`` hold the queue's heap
list under a local alias; ``EventQueue.compact()`` used to rebind
``self._heap`` to a fresh list, so events pushed after an in-event
compaction landed on a list the loop never looked at and the run ended
early without an error.
"""

import pytest

from repro.netsim.events import COMPACT_MIN_CANCELLED
from repro.netsim.simulator import Simulator

LOOPS = {
    "run": lambda sim: sim.run(until=100.0),
    "run_batched": lambda sim: sim.run_batched(until=100.0),
    "run_before": lambda sim: sim.run_before(100.0),
}


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_in_event_compaction_keeps_the_run_whole(loop):
    sim = Simulator()
    ran = []
    # A majority of the heap: armed timers far in the future...
    timers = [sim.timer(lambda: ran.append("timer")) for _ in range(COMPACT_MIN_CANCELLED + 8)]
    for timer in timers:
        timer.start(50.0)

    def cancel_all_and_follow_up():
        for timer in timers:
            timer.cancel()
        ran.append("cancel")
        sim.schedule(1.0, lambda: ran.append("follow-up"))

    # ...cancelled by one event, which also schedules a follow-up.
    sim.schedule(1.0, cancel_all_and_follow_up)
    sim.schedule(3.0, lambda: ran.append("later"))
    sim.schedule(4.0, lambda: sim.schedule(1.0, lambda: ran.append("chained")))

    LOOPS[loop](sim)

    assert sim.queue.compactions >= 1  # the compaction really happened mid-run
    assert ran == ["cancel", "follow-up", "later", "chained"]
    assert len(sim.queue) == 0
