"""Cross-module integration tests.

These exercise the seams the unit tests cannot: the full application ->
runtime -> controller -> backend -> zpool/NMA path, baseline-vs-XFM
equivalence, and the public API surface.
"""

import importlib

import pytest

import repro
from repro import (
    PAGE_SIZE,
    Page,
    SfmBackend,
    XfmBackend,
    corpus_pages,
)
from repro.sfm.controller import ColdScanController
from repro.workloads.aifm import FarMemoryRuntime
from repro.workloads.webfrontend import WebFrontend, WebFrontendConfig


class TestBaselineXfmEquivalence:
    """XFM must be a functionally transparent drop-in for the baseline."""

    def test_identical_content_behaviour(self):
        data = corpus_pages("db-btree", 12, seed=21)
        baseline = SfmBackend(capacity_bytes=64 * PAGE_SIZE)
        xfm = XfmBackend(capacity_bytes=64 * PAGE_SIZE, codec=baseline.codec)
        base_pages = [Page(vaddr=i * PAGE_SIZE, data=d) for i, d in enumerate(data)]
        xfm_pages = [Page(vaddr=i * PAGE_SIZE, data=d) for i, d in enumerate(data)]
        for bp, xp in zip(base_pages, xfm_pages):
            assert baseline.swap_out(bp).accepted == xfm.swap_out(xp).accepted
        for bp, xp, original in zip(base_pages, xfm_pages, data):
            assert baseline.swap_in(bp) == original
            assert xfm.swap_in(xp) == original

    def test_xfm_moves_traffic_off_the_channel(self):
        """The whole point: same work, zero DDR-channel bytes for swap-outs."""
        data = corpus_pages("server-log", 8, seed=22)
        baseline = SfmBackend(capacity_bytes=64 * PAGE_SIZE)
        xfm = XfmBackend(capacity_bytes=64 * PAGE_SIZE)
        for i, d in enumerate(data):
            baseline.swap_out(Page(vaddr=i * PAGE_SIZE, data=d))
            xfm.swap_out(Page(vaddr=i * PAGE_SIZE, data=d))
        assert baseline.traffic.channel_bytes > 8 * PAGE_SIZE
        assert xfm.traffic.channel_bytes == 0
        assert xfm.traffic.nma_bytes > 0

    def test_cpu_cycles_eliminated(self):
        data = corpus_pages("xml-config", 4, seed=23)
        xfm = XfmBackend(capacity_bytes=64 * PAGE_SIZE)
        for i, d in enumerate(data):
            xfm.xfm_swap_out(Page(vaddr=i * PAGE_SIZE, data=d))
        assert xfm.stats.cpu_compress_cycles == 0.0


class TestFullStackWebFrontend:
    @pytest.mark.parametrize("backend_cls", [SfmBackend, XfmBackend])
    def test_application_runs_on_both_backends(self, backend_cls):
        backend = backend_cls(capacity_bytes=512 * PAGE_SIZE)
        runtime = FarMemoryRuntime(
            backend,
            local_capacity_pages=48,
            controller=ColdScanController(
                cold_threshold_s=4.0, scan_period_s=2.0
            ),
        )
        frontend = WebFrontend(
            runtime,
            WebFrontendConfig(num_pages=160, lookups_per_s=25, seed=13),
        )
        report = frontend.run(duration_s=40.0)
        assert report.swap_outs > 10
        assert report.swap_ins > 0
        assert runtime.trace.duration_s > 0

    def test_observed_promotion_rate_reasonable(self):
        backend = SfmBackend(capacity_bytes=512 * PAGE_SIZE)
        runtime = FarMemoryRuntime(
            backend,
            local_capacity_pages=48,
            controller=ColdScanController(cold_threshold_s=4.0, scan_period_s=2.0),
        )
        frontend = WebFrontend(
            runtime, WebFrontendConfig(num_pages=160, lookups_per_s=25, seed=15)
        )
        frontend.run(duration_s=60.0)
        far_bytes = max(1, backend.stored_pages()) * PAGE_SIZE
        assert runtime.trace.promotion_rate(far_bytes) >= 0.0


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_each_export_is_its_defining_modules_object(self):
        assert set(repro._EXPORTS) | {"__version__"} == set(repro.__all__)
        for name, home in repro._EXPORTS.items():
            value = getattr(repro, name)
            assert value is getattr(importlib.import_module(home), name)
            assert getattr(value, "__module__", home) == home, name

    def test_dir_lists_every_export(self):
        assert set(repro.__all__) <= set(dir(repro))

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from repro import *", namespace)
        for name in repro.__all__:
            assert namespace[name] is getattr(repro, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name
        assert not hasattr(repro, "XfmBackendd")

    def test_quickstart_docstring_flow(self):
        backend = XfmBackend(capacity_bytes=64 * PAGE_SIZE)
        page = Page(vaddr=0, data=b"x" * PAGE_SIZE)
        outcome = backend.xfm_swap_out(page)
        assert outcome.accepted
        assert backend.xfm_swap_in(page) == b"x" * PAGE_SIZE
