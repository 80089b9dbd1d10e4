"""Protocol-level XFM module tests: scheduler decisions vs bank FSMs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.refresh_channel import AccessKind
from repro.core.xfm_module import XfmModule
from repro.dram.commands import CommandKind
from repro.dram.device import DDR5_8GB, timings_for_device
from repro.errors import DramProtocolError


class TestWindowExecution:
    def test_flexible_access_executes_first_window(self):
        module = XfmModule()
        module.submit_write(None, nbytes=2048)
        executed = module.step()
        assert len(executed) == 1
        assert executed[0].conditional
        assert module.host_window_clean()

    def test_fixed_row_waits_for_its_slot(self):
        module = XfmModule()
        rows_per_ref = module.device.rows_refreshed_per_trfc
        module.scheduler.random_per_ref = 0
        module.submit_read(rows_per_ref * 3)  # slot 3
        assert module.step() == []
        assert module.step() == []
        assert module.step() == []
        executed = module.step()  # window 3
        assert len(executed) == 1
        assert executed[0].conditional

    def test_random_access_validated_against_subarrays(self):
        module = XfmModule()
        # Row in a distant subarray: a legal random in window 0.
        module.submit_read(512 * 8)
        executed = module.step()
        assert len(executed) == 1
        assert not executed[0].conditional

    def test_command_trace_recorded(self):
        module = XfmModule()
        module.submit_write(None)
        module.submit_read(512 * 8)
        module.run(2)
        kinds = [command.kind for command in module.commands]
        assert kinds.count(CommandKind.REF) == 2
        assert CommandKind.NMA_WR in kinds
        assert CommandKind.NMA_RD in kinds
        times = [command.time_ns for command in module.commands]
        assert times == sorted(times)

    def test_window_budget_respected(self):
        module = XfmModule(accesses_per_ref=3)
        for _ in range(10):
            module.submit_write(None)
        executed = module.step()
        assert len(executed) == 3

    def test_overcommitted_budget_detected(self):
        """A budget beyond the device's tRFC capacity must trip the
        protocol check, not silently succeed."""
        module = XfmModule(
            device=DDR5_8GB,
            timings=timings_for_device(DDR5_8GB),
            accesses_per_ref=4,  # 8 Gb part fits only 2 page accesses
        )
        for _ in range(4):
            module.submit_write(None)
        with pytest.raises(DramProtocolError):
            module.step()

    def test_host_clean_after_every_window(self):
        module = XfmModule()
        for i in range(20):
            if i % 3 == 0:
                module.submit_write(None, nbytes=1024)
            if i % 5 == 0:
                module.submit_read((i * 137) % module.device.rows_per_bank)
            module.step()
            assert module.host_window_clean()


@settings(max_examples=25)
@given(
    operations=st.lists(
        st.tuples(
            st.booleans(),  # read or write
            st.one_of(st.none(), st.integers(0, DDR5_8GB.rows_per_bank - 1)),
        ),
        max_size=30,
    ),
    seed=st.integers(0, 1000),
)
def test_module_protocol_safety_property(operations, seed):
    """Property: for any submission pattern, every access the scheduler
    executes is protocol-legal (no DramProtocolError), windows never
    overrun tRFC, and the host view is clean after every window."""
    module = XfmModule(
        device=DDR5_8GB,
        timings=timings_for_device(DDR5_8GB),
        accesses_per_ref=2,
    )
    pending = list(operations)
    for step_index in range(40):
        if pending and step_index % 2 == 0:
            is_read, row = pending.pop()
            if is_read:
                module.submit_read(row, nbytes=1024)
            else:
                module.submit_write(row, nbytes=1024)
        module.step(pressure=bool(seed % 2))
        assert module.host_window_clean()
