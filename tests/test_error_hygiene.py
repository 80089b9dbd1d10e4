"""Hygiene lints: typed errors in device layers, one clock for the stack,
one property-test engine, one way out of a tier, one integrity digest.

Error hygiene: the resilience layer's recovery logic dispatches on the
:mod:`repro.errors` hierarchy (``DeviceFault`` retries, ``SfmError``
surfaces, ``CorruptedBlobError`` poisons, ...). A bare builtin raise in
those layers would silently bypass every one of those contracts, so
this test greps them out of existence. Builtins stay allowed elsewhere
(e.g. compression codecs predate the hierarchy and raise ``ValueError``
for malformed arguments by design).

Clock hygiene: all simulated time originates from
:data:`repro.sim.CLOCK`. Wall-clock reads (``time.time`` /
``time.monotonic`` / ``time.perf_counter``) and ad-hoc module-level
clock state anywhere else in ``src/repro`` would fork the timeline —
timestamps that drift from refresh windows, backoff charges invisible
to breaker cool-downs — so the grep forbids both outside ``repro/sim``.
Moving the simulated clock is allowlisted: a handful of files charge
modelled time, and the rest of the stack schedules events or borrows a
timeline.

Engine hygiene: generated cases come from Hypothesis alone, configured
in ``tests/hypothesis_settings.py`` — nothing imports the retired
``repro.validation.fuzz``, and no other file reads
``FUZZ_TIME_BUDGET_S`` or sets ``derandomize``/``database``. Nothing
calls the builtin ``hash``: it is salted per process.

Fault-site hygiene: every site in ``ALL_SITES`` is fired somewhere in
``src/repro`` outside the injector, so a profile that schedules a site
schedules something that can happen.

Pipeline hygiene: in ``tiering/pipeline.py`` a tier's ``swap_in`` or
``promote`` is called only from ``TierPipeline._take``, and a tier's
``swap_latency_s`` only from the op timer ``_timed``, so error
accounting and the lazy modelled-latency query each live in one place.

Digest hygiene: :mod:`hashlib` is called only at the sites
``HASH_SITES`` names, so the tier path's page and blob digests stay the
two functions of ``resilience/integrity.py``.
"""

import ast
import functools
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: Layers whose raises must come from repro.errors.
LINTED_DIRS = ("core", "sfm", "dfm", "tiering", "scenarios", "fleet")

#: Builtin exception types forbidden as `raise X(...)` in linted dirs.
FORBIDDEN = ("ValueError", "RuntimeError", "Exception", "KeyError",
             "TypeError", "IOError", "OSError")

_RAISE = re.compile(
    r"^\s*raise\s+(?:" + "|".join(FORBIDDEN) + r")\b"
)


def _linted_files():
    for directory in LINTED_DIRS:
        yield from sorted((SRC / directory).rglob("*.py"))


def test_linted_layers_exist():
    files = list(_linted_files())
    assert len(files) >= 8, "lint scope unexpectedly small"


def test_no_builtin_raises_in_device_layers():
    offenders = []
    for path in _linted_files():
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if _RAISE.match(line):
                offenders.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert not offenders, (
        "builtin exceptions raised in device layers (use repro.errors):\n"
        + "\n".join(offenders)
    )


def test_resilience_error_types_are_wired():
    """The three error types the resilience layer dispatches on exist
    and sit in the right places in the hierarchy."""
    from repro.errors import (
        CorruptedBlobError,
        DeviceFault,
        ReproError,
        SfmError,
        TierUnavailableError,
    )

    assert issubclass(DeviceFault, ReproError)
    assert issubclass(TierUnavailableError, ReproError)
    assert issubclass(CorruptedBlobError, SfmError)
    # CorruptedBlobError carries the poisoned vaddr for reporting.
    assert CorruptedBlobError("x", vaddr=0x123).vaddr == 0x123


def test_overload_error_types_are_wired():
    """The fleet serving layer's shed/fast-fail types exist, nest so a
    single ``except OverloadError`` catches both, and carry the
    machine-readable fields clients dispatch on."""
    from repro.errors import OverloadError, ReproError, RetryBudgetExhausted

    assert issubclass(OverloadError, ReproError)
    assert issubclass(RetryBudgetExhausted, OverloadError)
    exc = OverloadError("shed", reason="queue-full", retry_after_ns=1500.0)
    assert exc.reason == "queue-full"
    assert exc.retry_after_ns == 1500.0
    assert RetryBudgetExhausted("no budget").reason == "retry-budget"


# -- clock hygiene -----------------------------------------------------------

#: Wall-clock reads forbidden in src/repro outside repro/sim. Matches
#: call sites (`time.monotonic(`), not the words in prose/docstrings.
_WALL_CLOCK = re.compile(
    r"\btime\.(?:time|monotonic|perf_counter|monotonic_ns|time_ns"
    r"|perf_counter_ns)\s*\("
)

#: Ad-hoc simulated-clock state: module-level mutable time variables of
#: the shape the pre-sim telemetry layer used (`_clock_ns = 0.0`). Any
#: new one must live in repro/sim instead.
_ADHOC_CLOCK = re.compile(r"^_[a-z_]*clock[a-z_]*\s*(?::[^=]+)?=\s*[-0-9]")


def _all_src_files():
    yield from sorted(SRC.rglob("*.py"))


def test_no_wall_clock_outside_sim():
    offenders = []
    for path in _all_src_files():
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("sim/"):
            continue
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if _WALL_CLOCK.search(line):
                offenders.append(f"{rel}:{lineno}: {line.strip()}")
    assert not offenders, (
        "wall-clock reads outside repro/sim (use repro.sim.CLOCK):\n"
        + "\n".join(offenders)
    )


def test_wall_clock_allowlist_is_tight():
    """The wall-clock lint has no allowlist: it exempts only repro/sim,
    and its pattern flags every host-clock call form (not the words in
    prose), so an empty offender list means no host-clock read."""
    for name in (
        "time", "monotonic", "perf_counter", "monotonic_ns", "time_ns",
        "perf_counter_ns",
    ):
        assert _WALL_CLOCK.search(f"start = time.{name}()"), name
        assert not _WALL_CLOCK.search(f"reads time.{name} in prose"), name
    assert "WALL_CLOCK_ALLOWLIST" not in globals()


def test_no_adhoc_clock_state_outside_sim():
    offenders = []
    for path in _all_src_files():
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("sim/"):
            continue
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if _ADHOC_CLOCK.match(line):
                offenders.append(f"{rel}:{lineno}: {line.strip()}")
    assert not offenders, (
        "ad-hoc module-level clock state outside repro/sim (the shared "
        "timeline lives in repro.sim.CLOCK):\n" + "\n".join(offenders)
    )


#: A call that moves the simulated clock (a method ``def`` does not
#: match: it has no leading dot), or a direct store to its tick field
#: (the event core's drain loop moves the clock that way).
_CLOCK_WRITE = re.compile(
    r"\.(?:advance_ns|set_ns|set_ticks)\s*\(|\._ticks\s*[-+]?=(?!=)"
)

#: Files allowed to move the clock: the clock, the event core and the
#: run context; the replayer's timeline; and the components that charge
#: modelled costs (backend device time, retry backoff, chaos op ticks,
#: the fleet's service-time floor). Everything else reads the clock,
#: schedules events, or borrows a timeline with ``CLOCK.scoped()``.
CLOCK_WRITER_ALLOWLIST = {
    "sim/clock.py",
    "sim/events.py",
    "sim/context.py",
    "scenarios/replayer.py",
    "sfm/backend.py",
    "resilience/retry.py",
    "resilience/chaos.py",
    "fleet/shard.py",
}


def test_clock_writers_are_allowlisted():
    offenders = []
    for path in _all_src_files():
        rel = path.relative_to(SRC).as_posix()
        if rel in CLOCK_WRITER_ALLOWLIST:
            continue
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if _CLOCK_WRITE.search(line):
                offenders.append(f"{rel}:{lineno}: {line.strip()}")
    assert not offenders, (
        "simulated clock moved outside CLOCK_WRITER_ALLOWLIST (schedule an "
        "event, or borrow a timeline with CLOCK.scoped()):\n"
        + "\n".join(offenders)
    )


def test_clock_writers_allowlist_is_tight():
    """Every allowlisted file exists and still moves the clock — stale
    entries would quietly widen the lint hole."""
    for rel in sorted(CLOCK_WRITER_ALLOWLIST):
        path = SRC / rel
        assert path.exists(), f"allowlist entry gone: {rel}"
        assert _CLOCK_WRITE.search(path.read_text(encoding="utf-8")), (
            f"allowlist entry no longer moves the clock: {rel}"
        )


#: A ``global`` statement: the way module run state gets rebound.
_GLOBAL = re.compile(r"^\s*global\s+\w+(\s*,\s*\w+)*\s*(#.*)?$")

#: Files allowed to rebind module globals: the run context itself, and
#: two lazy one-time loads that hold no run state.
GLOBAL_ALLOWLIST = {
    "sim/context.py",
    "compression/_native.py",  # the kernel library, loaded on first use
    "validation/hooks.py",  # _registry_loaded: checkers import on first use
}


def test_no_module_run_state_outside_context():
    """Run state (trace ring, flight recorder, fault injector, validation
    flag) lives in :mod:`repro.sim.context` and is scoped by
    ``run_context``; a ``global`` anywhere else is a second,
    hand-restored copy of it."""
    offenders = []
    for path in _all_src_files():
        rel = path.relative_to(SRC).as_posix()
        if rel in GLOBAL_ALLOWLIST:
            continue
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if _GLOBAL.match(line):
                offenders.append(f"{rel}:{lineno}: {line.strip()}")
    assert not offenders, (
        "module globals rebound outside repro/sim/context.py (put run "
        "state on RunContext):\n" + "\n".join(offenders)
    )


def test_global_allowlist_is_tight():
    """Every allowlisted file exists and still has a ``global``
    statement — stale entries would quietly widen the lint hole."""
    for rel in sorted(GLOBAL_ALLOWLIST):
        path = SRC / rel
        assert path.exists(), f"allowlist entry gone: {rel}"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert any(_GLOBAL.match(line) for line in lines), (
            f"allowlist entry no longer rebinds a global: {rel}"
        )


def test_scenario_error_types_are_wired():
    """Trace/manifest readers raise one catchable family."""
    from repro.errors import (
        ManifestError,
        ReproError,
        ScenarioError,
        TraceFormatError,
        TraceVersionError,
    )

    assert issubclass(ScenarioError, ReproError)
    assert issubclass(TraceFormatError, ScenarioError)
    assert issubclass(TraceVersionError, TraceFormatError)
    assert issubclass(ManifestError, ScenarioError)


# -- one property-test engine ------------------------------------------------

_PYTHON_TREES = ("src", "tests", "benchmarks", "examples")

_SHARED_SETTINGS = "tests/hypothesis_settings.py"


@functools.lru_cache(maxsize=1)
def _code_lines():
    """(repo-relative path, line number, line without its comment) of
    every Python line in the linted trees."""
    return tuple(
        (path.relative_to(REPO).as_posix(), lineno, line.split("#", 1)[0])
        for tree in _PYTHON_TREES
        for path in sorted((REPO / tree).rglob("*.py"))
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
    )


def _files_matching(pattern):
    return sorted(
        {rel for rel, _, code in _code_lines() if pattern.search(code)}
    )


def test_nothing_imports_the_retired_fuzz_engine():
    retired = re.compile(
        r"^\s*(?:from|import)\s+repro\.validation\.fuzz\b"
        r"|^\s*from\s+repro\.validation\s+import\b.*\bfuzz\b"
    )
    assert _files_matching(retired) == []
    assert not (SRC / "validation" / "fuzz.py").exists()


def test_one_file_reads_the_fuzz_budget():
    reads = re.compile(
        r"(?:environ(?:\.get)?\s*[\[(]|getenv\s*\()\s*[\"']FUZZ_TIME_BUDGET_S"
    )
    assert _files_matching(reads) == [_SHARED_SETTINGS]


def test_one_file_sets_derandomize_and_database():
    for keyword in ("derandomize", "database"):
        sets = re.compile(r"\b" + keyword + r"\s*=")
        assert _files_matching(sets) == [_SHARED_SETTINGS], keyword


def test_no_builtin_hash_calls():
    builtin_hash = re.compile(r"(?<![.\w])hash\(")
    offenders = [
        f"{rel}:{lineno}: {code.strip()}"
        for rel, lineno, code in _code_lines()
        if builtin_hash.search(code)
    ]
    assert not offenders, (
        "the builtin hash is salted per process; derive seeds with "
        "repro.validation.generators.case_seed or zlib.crc32:\n"
        + "\n".join(offenders)
    )


# -- one way out of a tier ---------------------------------------------------


def _pipeline_calls(method_names):
    """``(enclosing def, line)`` of every call in ``tiering/pipeline.py``
    of a method in ``method_names`` on anything but ``self`` (a tier)."""
    path = SRC / "tiering" / "pipeline.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            callee = getattr(node, "func", None)
            if (
                isinstance(node, ast.Call)
                and isinstance(callee, ast.Attribute)
                and callee.attr in method_names
                and not (isinstance(callee.value, ast.Name)
                         and callee.value.id == "self")
            ):
                calls.append((func.name, node.lineno))
    return calls


def test_pages_leave_a_tier_only_through_take():
    """Every way out of a tier (load, prefetch, demotion, promotion,
    drain) takes the page through ``TierPipeline._take``, so its error
    accounting exists once."""
    calls = _pipeline_calls({"swap_in", "promote"})
    assert calls and {name for name, _ in calls} == {"_take"}, calls


def test_modelled_latency_is_queried_only_by_the_op_timer():
    """A tier's modelled latency is read only by the op timer, lazily:
    a DFM query draws a fault site. ``TierPipeline.swap_latency_s``, the
    protocol method, is the other reader."""
    calls = _pipeline_calls({"swap_latency_s"})
    assert sorted({name for name, _ in calls}) == [
        "_timed", "swap_latency_s"
    ], calls
    assert [name for name, _ in calls].count("_timed") == 1, calls


# -- every scheduled fault site can fire ---------------------------------------


def _fault_site_names():
    """The constant names listed in ``resilience/faults.py``'s
    ``ALL_SITES``."""
    path = SRC / "resilience" / "faults.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        target = getattr(node, "target", None) or (
            node.targets[0] if isinstance(node, ast.Assign) else None
        )
        if isinstance(target, ast.Name) and target.id == "ALL_SITES":
            return [element.id for element in node.value.elts]
    raise AssertionError("ALL_SITES not found in resilience/faults.py")


def _called_name(call):
    return getattr(call.func, "attr", None) or getattr(call.func, "id", None)


def _fired_site_names():
    """The site constant of each ``fire(...)`` call in ``src/repro``
    (the injector's own module excluded) whose enclosing ``def`` some
    code in ``src/repro`` calls by name: a ``fire`` inside a def that
    only tests call is not a way for a program to draw the site."""
    firing = []  # (site constant, name of the def around the call)
    called = set()
    for path in _all_src_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        called.update(
            _called_name(node) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        )
        if path.relative_to(SRC).as_posix() == "resilience/faults.py":
            continue
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and node.args
                        and _called_name(node) == "fire"):
                    site = node.args[0]
                    firing.append((
                        getattr(site, "attr", None) or getattr(site, "id", None),
                        func.name,
                    ))
    return {site for site, func in firing if func in called}


def test_every_fault_site_is_fired_somewhere():
    """A site no program can reach draws nothing: a profile can schedule
    it and no report ever lists it."""
    sites = _fault_site_names()
    fired = _fired_site_names()
    unfired = [site for site in sites if site not in fired]
    assert sites and not unfired, (
        "fault sites in ALL_SITES with no fire() call in a def that "
        "src/repro calls: " + ", ".join(unfired)
    )


# -- one integrity digest ------------------------------------------------------

#: Every ``def`` in ``src/repro`` that calls a :mod:`hashlib` hash, and
#: why. The tier path's integrity digests are the two functions of
#: ``resilience/integrity.py``; a second hash on that path would hash
#: each page twice. The other sites are not integrity digests.
HASH_SITES = {
    "resilience/integrity.py:page_digest": "integrity digest (SHA-256/128)",
    "resilience/integrity.py:content_digest": "integrity digest (SHA-256/64)",
    "scenarios/format.py:digest_hex": "on-disk trace page key (BLAKE2b-128)",
    "scenarios/format.py:trace_fingerprint": "on-disk trace fingerprint",
    "resilience/faults.py:_site_seed": "fault-site seeding",
    "resilience/faults.py:_event_salt": "fault-site seeding",
    "fleet/frontend.py:rendezvous_score": "fleet routing",
    "fleet/frontend.py:FleetFrontend.route": "fleet routing",
    "compression/_native.py:load": "native-kernel cache key",
    "compression/deflate.py:StaticTableSet.__init__": "static table id",
    "validation/generators.py:case_seed": "fuzz case seeding",
}


def _hash_call_sites(tree):
    """Qualified name of the ``def`` around each call of a hashlib
    constructor, whether reached as ``hashlib.<name>`` (under any alias)
    or imported by name from :mod:`hashlib`."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "hashlib")
        elif isinstance(node, ast.ImportFrom) and node.module == "hashlib":
            names.update(alias.asname or alias.name for alias in node.names)

    def is_hash(call):
        func = call.func
        if isinstance(func, ast.Name):
            return func.id in names
        return (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in modules)

    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and is_hash(child):
                sites.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(tree, [])
    return sites


@functools.lru_cache(maxsize=1)
def _hash_sites():
    found = {}
    for path in _all_src_files():
        rel = path.relative_to(SRC).as_posix()
        for scope in _hash_call_sites(ast.parse(path.read_text("utf-8"))):
            found[f"{rel}:{scope}"] = found.get(f"{rel}:{scope}", 0) + 1
    return found


def test_hashes_are_called_only_at_named_sites():
    """``hashlib.blake2b``/``hashlib.sha256`` (or any hashlib hash) run
    only where :data:`HASH_SITES` names a reason."""
    unnamed = sorted(set(_hash_sites()) - set(HASH_SITES))
    assert not unnamed, (
        "hashlib called outside HASH_SITES (the tier path hashes through "
        "repro.resilience.integrity):\n" + "\n".join(unnamed)
    )


def test_hash_sites_are_tight():
    """Every named site still hashes: a stale entry would leave room
    for a second digest."""
    stale = sorted(set(HASH_SITES) - set(_hash_sites()))
    assert not stale, f"HASH_SITES entries that no longer hash: {stale}"


def test_hash_lint_sees_every_spelling():
    tree = ast.parse(
        "import hashlib as h\nfrom hashlib import sha256\n"
        "class C:\n    def f(self):\n        return h.blake2b(b'')\n"
        "def g():\n    return sha256(b'')\n"
    )
    assert _hash_call_sites(tree) == ["C.f", "g"]
