"""Zero-cost-when-disabled validation checkpoints.

Data-structure classes across the library call :func:`checkpoint` at the
end of every mutating operation. When validation is disabled (the
default) the call is one read of the run context's ``validation``
field (:mod:`repro.sim.context`) — cheap enough to leave in benchmark
hot paths. When enabled (``with run_context(validation=True):``, the
``REPRO_VALIDATION`` environment variable, or pytest's
``--validation`` flag) every checkpoint dispatches to the
invariant checker registered for the object's class in
:mod:`repro.validation.invariants` and raises
:class:`~repro.validation.invariants.InvariantViolation` on the first
broken structural property.

The registry is keyed by class and walked through the MRO, so a checker
registered for a base class also covers subclasses (e.g. ``XfmBackend``
inherits ``SfmBackend``'s checks).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.sim import context as _context

#: class -> checker(instance) -> None (raises InvariantViolation).
_checkers: Dict[type, Callable] = {}

_registry_loaded: bool = False


def validation_enabled() -> bool:
    """Whether invariant checkpoints are active."""
    return _context._current.validation


def register_checker(cls: type, checker: Callable) -> None:
    """Bind ``checker`` to instances of ``cls`` (and subclasses)."""
    _checkers[cls] = checker


def checker_for(cls: type) -> Optional[Callable]:
    """The registered checker for ``cls``, resolved through the MRO."""
    _ensure_registry()
    for base in cls.__mro__:
        checker = _checkers.get(base)
        if checker is not None:
            return checker
    return None


def checkpoint(obj: object) -> None:
    """Validate ``obj`` if validation is on; free when it is off."""
    if not _context._current.validation:
        return
    checker = checker_for(type(obj))
    if checker is not None:
        checker(obj)


def _ensure_registry() -> None:
    """Populate the checker registry (lazy import breaks the cycle:
    invariants imports the data structures, which import this module)."""
    global _registry_loaded
    if _registry_loaded:
        return
    _registry_loaded = True
    import repro.validation.invariants  # noqa: F401  (registers on import)
