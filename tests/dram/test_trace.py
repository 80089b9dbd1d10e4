"""Command-trace validation tests, including the controller cross-check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.commands import CommandKind, TimedCommand
from repro.dram.controller import ChannelController, MemoryRequest
from repro.dram.device import DDR5_32GB, timings_for_device
from repro.dram.trace import (
    TraceValidator,
    refresh_command_stream,
)
from repro.errors import DramProtocolError

TIMINGS = timings_for_device(DDR5_32GB)


def _validator(num_ranks=2):
    return TraceValidator(DDR5_32GB, TIMINGS, num_ranks=num_ranks)


def _cmd(t, kind, rank=0, bank=0, row=0):
    return TimedCommand(time_ns=t, kind=kind, rank=rank, bank=bank, row=row)


class TestBasicRules:
    def test_legal_act_rd_pre(self):
        stats = _validator().validate(
            [
                _cmd(500.0, CommandKind.ACT, row=7),
                _cmd(500.0 + TIMINGS.trcd_ns, CommandKind.RD, row=7),
                _cmd(600.0, CommandKind.PRE),
            ]
        )
        assert stats.host_reads == 1
        assert stats.commands == 3

    def test_read_without_activate_rejected(self):
        with pytest.raises(DramProtocolError):
            _validator().validate([_cmd(500.0, CommandKind.RD, row=7)])

    def test_unordered_trace_rejected(self):
        with pytest.raises(DramProtocolError):
            _validator().validate(
                [
                    _cmd(600.0, CommandKind.ACT, row=7),
                    _cmd(500.0, CommandKind.PRE),
                ]
            )

    def test_host_command_inside_refresh_window_rejected(self):
        with pytest.raises(DramProtocolError):
            _validator().validate(
                [
                    _cmd(0.0, CommandKind.REF),
                    _cmd(TIMINGS.trfc_ns / 2, CommandKind.ACT, row=7),
                ]
            )

    def test_host_command_after_window_allowed(self):
        stats = _validator().validate(
            [
                _cmd(0.0, CommandKind.REF),
                _cmd(TIMINGS.trfc_ns + 1, CommandKind.ACT, row=7),
            ]
        )
        assert stats.refresh_windows == 1

    def test_nma_outside_window_rejected(self):
        with pytest.raises(DramProtocolError):
            _validator().validate(
                [_cmd(500.0, CommandKind.NMA_RD, row=0)]
            )

    def test_nma_conditional_inside_window(self):
        stats = _validator().validate(
            [
                _cmd(0.0, CommandKind.REF),
                # Window 0 refreshes rows 0..15: row 3 is conditional.
                _cmd(50.0, CommandKind.NMA_RD, row=3),
                # Distant subarray: a legal random access.
                _cmd(100.0, CommandKind.NMA_WR, row=512 * 5),
            ]
        )
        assert stats.nma_accesses == 2

    def test_nma_random_into_busy_subarray_rejected(self):
        with pytest.raises(DramProtocolError):
            _validator().validate(
                [
                    _cmd(0.0, CommandKind.REF),
                    _cmd(50.0, CommandKind.NMA_RD, row=100),  # subarray 0 busy
                ]
            )

    def test_ref_acts_as_precharge_all(self):
        """An open row at REF time is implicitly closed (PREA)."""
        stats = _validator().validate(
            [
                _cmd(500.0, CommandKind.ACT, row=7),
                _cmd(TIMINGS.trefi_ns, CommandKind.REF),
                _cmd(
                    TIMINGS.trefi_ns + TIMINGS.trfc_ns + TIMINGS.trp_ns,
                    CommandKind.ACT,
                    row=9,
                ),
            ]
        )
        assert stats.count(CommandKind.ACT) == 2

    def test_unknown_rank_rejected(self):
        with pytest.raises(DramProtocolError):
            _validator(num_ranks=1).validate(
                [_cmd(0.0, CommandKind.REF, rank=5)]
            )


class TestControllerCrossCheck:
    """The controller's closed-form math must imply a legal command stream."""

    def _validate_requests(self, requests):
        controller = ChannelController(DDR5_32GB, TIMINGS, num_ranks=2)
        log = []
        stats = controller.run(requests, command_log=log)
        refs = refresh_command_stream(
            stats.total_time_ns + TIMINGS.trefi_ns, num_ranks=2,
            timings=TIMINGS,
        )
        stream = sorted(log + refs, key=lambda c: (c.time_ns, c.kind.name))
        return TraceValidator(DDR5_32GB, TIMINGS, num_ranks=2).validate(
            stream
        ), stats

    def test_simple_stream_validates(self):
        requests = [
            MemoryRequest(arrival_ns=500.0 + i * 30, rank=i % 2,
                          bank=i % 8, row=i % 64)
            for i in range(64)
        ]
        trace_stats, run_stats = self._validate_requests(requests)
        assert trace_stats.host_reads == run_stats.completed

    def test_same_bank_conflict_stream_validates(self):
        requests = [
            MemoryRequest(arrival_ns=500.0 + i * 10, rank=0, bank=0, row=i)
            for i in range(32)
        ]
        trace_stats, _ = self._validate_requests(requests)
        assert trace_stats.count(CommandKind.PRE) > 0

    def test_closed_page_policy_stream_validates(self):
        """Auto-precharge streams (closed policy) are protocol-legal."""
        controller = ChannelController(
            DDR5_32GB, TIMINGS, num_ranks=2, row_policy="closed"
        )
        log = []
        requests = [
            MemoryRequest(arrival_ns=500.0 + i * 8, rank=0, bank=i % 4,
                          row=(i * 13) % 64)
            for i in range(48)
        ]
        stats = controller.run(requests, command_log=log)
        assert stats.row_hits == 0
        refs = refresh_command_stream(
            stats.total_time_ns + TIMINGS.trefi_ns, num_ranks=2,
            timings=TIMINGS,
        )
        stream = sorted(log + refs, key=lambda c: (c.time_ns, c.kind.name))
        trace_stats = TraceValidator(
            DDR5_32GB, TIMINGS, num_ranks=2
        ).validate(stream)
        # Every access carries its own PRE under auto-precharge.
        assert trace_stats.count(CommandKind.PRE) == stats.completed

    def test_bad_policy_rejected(self):
        import pytest as _pytest

        from repro.errors import ConfigError

        with _pytest.raises(ConfigError):
            ChannelController(DDR5_32GB, TIMINGS, row_policy="fr-fcfs")

    def test_stream_spanning_many_refresh_epochs_validates(self):
        requests = [
            MemoryRequest(
                arrival_ns=100.0 + i * TIMINGS.trefi_ns / 3,
                rank=i % 2, bank=(i * 3) % 16, row=(i * 7) % 128,
            )
            for i in range(120)
        ]
        trace_stats, run_stats = self._validate_requests(requests)
        assert trace_stats.refresh_windows > 30
        assert trace_stats.host_reads == run_stats.completed


@settings(max_examples=25)
@given(
    requests=st.lists(
        st.tuples(
            st.floats(0.0, 50_000.0),
            st.integers(0, 1),    # rank
            st.integers(0, 15),   # bank
            st.integers(0, 255),  # row
            st.booleans(),        # write
        ),
        max_size=80,
    )
)
def test_controller_streams_always_validate_property(requests):
    """Property: any request pattern produces a protocol-legal stream."""
    controller = ChannelController(DDR5_32GB, TIMINGS, num_ranks=2)
    log = []
    stats = controller.run(
        [
            MemoryRequest(
                arrival_ns=arrival, rank=rank, bank=bank, row=row,
                is_write=write,
            )
            for arrival, rank, bank, row, write in requests
        ],
        command_log=log,
    )
    refs = refresh_command_stream(
        stats.total_time_ns + TIMINGS.trefi_ns, num_ranks=2, timings=TIMINGS
    )
    stream = sorted(log + refs, key=lambda c: (c.time_ns, c.kind.name))
    TraceValidator(DDR5_32GB, TIMINGS, num_ranks=2).validate(stream)
