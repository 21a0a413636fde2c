"""Paraver export round-trip: .prv records vs .pcf declarations vs .row.

Satellite coverage for :mod:`repro.metrics.paraver`: the three files must
agree with each other and with what the recorder actually holds — header
counts, declared event types, monotonic timestamps, and the point-event
value enumeration.
"""

import pytest

from repro.metrics import TraceRecorder
from repro.metrics.paraver import (BUSY_EVENT_TYPE, OWNED_EVENT_TYPE,
                                   POINT_EVENT_TYPE, export_paraver)
from repro.sim import Simulator


@pytest.fixture
def trace():
    trace = TraceRecorder(Simulator())
    trace.busy_delta(0.0, 0, 0, +2)
    trace.busy_delta(0.4, 0, 0, -1)
    trace.busy_delta(0.7, 0, 0, -1)
    trace.busy_delta(0.1, 1, 1, +1)
    trace.set_owned(0.0, 0, 0, 4)
    trace.set_owned(0.5, 0, 0, 3)
    trace.add_event(0.2, "degrade", node=1, apprank=1, speed=0.5)
    trace.add_event(0.6, "degrade-end", node=1, apprank=1, speed=1.0)
    trace.add_event(0.3, "task-recovered", node=0, apprank=0)
    return trace


@pytest.fixture
def paths(trace, tmp_path):
    return export_paraver(trace, 1.0, tmp_path / "run")


def prv_body(paths):
    return paths["prv"].read_text().splitlines()[1:]


class TestRoundTrip:
    def test_row_size_matches_named_threads(self, paths):
        lines = paths["row"].read_text().splitlines()
        declared = int(lines[0].rsplit(" ", 1)[1])
        assert declared == len(lines) - 1 == 2

    def test_event_types_in_prv_are_declared_in_pcf(self, paths):
        pcf = paths["pcf"].read_text()
        declared = {int(word) for line in pcf.splitlines()
                    for word in line.split() if word.isdigit()}
        emitted = {int(line.split(":")[6]) for line in prv_body(paths)
                   if line.startswith("2:")}
        assert emitted  # the export wrote event records at all
        assert emitted <= declared
        assert {BUSY_EVENT_TYPE, OWNED_EVENT_TYPE,
                POINT_EVENT_TYPE} <= emitted

    def test_timestamps_monotonic(self, paths):
        times = [int(line.split(":")[5]) for line in prv_body(paths)]
        assert times == sorted(times)

    def test_point_event_values_match_pcf_enumeration(self, trace, paths):
        pcf = paths["pcf"].read_text()
        # the VALUES block follows the point event type declaration
        values_block = pcf.split(str(POINT_EVENT_TYPE), 1)[1]
        mapping = {}
        for line in values_block.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].isdigit():
                mapping[int(parts[0])] = parts[1]
        kinds = {instant.name for instant in trace.bus.instants}
        assert set(mapping.values()) == kinds == {
            "degrade", "degrade-end", "task-recovered"}
        # every emitted point record carries a declared value
        point_values = {
            int(line.split(":")[7]) for line in prv_body(paths)
            if line.startswith("2:")
            and int(line.split(":")[6]) == POINT_EVENT_TYPE}
        assert point_values == set(mapping)

    def test_point_record_lands_on_its_apprank_thread(self, trace, paths):
        # apprank 1 lives on node 1 => cpu 2, task 2, thread 1
        degrade = [line for line in prv_body(paths)
                   if line.startswith("2:")
                   and int(line.split(":")[6]) == POINT_EVENT_TYPE
                   and int(line.split(":")[5]) == int(0.2e9)]
        assert len(degrade) == 1
        cpu, _one, task, thread = degrade[0].split(":")[1:5]
        assert (cpu, task, thread) == ("2", "2", "1")

    def test_point_events_round_trip(self, trace):
        instants = trace.bus.instants
        assert [i.name for i in instants] == ["degrade", "degrade-end",
                                              "task-recovered"]
        first = instants[0]
        assert (first.time, first.name, first.track.node) == (0.2, "degrade", 1)
        assert first.args == {"apprank": 1, "speed": 0.5}
        assert [i for i in instants if i.name == "degrade"] == [first]

    def test_no_point_block_without_events(self, tmp_path):
        trace = TraceRecorder(Simulator())
        trace.busy_delta(0.0, 0, 0, +1)
        paths = export_paraver(trace, 1.0, tmp_path / "plain")
        pcf = paths["pcf"].read_text()
        assert str(POINT_EVENT_TYPE) not in pcf
        assert "Point events" not in pcf
