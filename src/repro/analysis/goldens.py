"""The replay goldens: the target config and rendering behind the
committed ``benchmarks/results/replay_*.txt`` files.

The paper's figures and tables are pinned through
:mod:`repro.analysis.experiments`, which renders each of them once for
the CLI, the benches and the golden test.
"""

from __future__ import annotations

#: The exact target config the committed replay goldens were replayed
#: against (``benchmarks/results/replay_*.txt``): a deliberately small
#: pipeline (5/5/30 pages via the factory's 1/8-1/8-3/4 split) so the
#: pinned numbers cover demotion cascades through all three tiers.
REPLAY_GOLDEN_BACKEND = "pipeline"
REPLAY_GOLDEN_KWARGS = {"capacity_bytes": 40 * 4096}

#: Scenarios with committed replay goldens -> their golden filenames.
REPLAY_GOLDEN_FILES = {
    "kv-cache": "replay_kv_cache.txt",
    "web-session": "replay_web_session.txt",
}


def replay_summary(report) -> str:
    """The replay golden exactly as the snapshot tests pin it: the CLI's
    :func:`repro.scenarios.replayer.format_report` rendering. A diff
    against ``benchmarks/results/replay_*.txt`` means replay semantics,
    the shipped artifact, or a backend's accounting moved."""
    from repro.scenarios.replayer import format_report

    return format_report(report.as_dict())
