"""Dataclass-shaped facades over registry counters.

The stack's historical statistics objects (``SwapStats``,
``DriverStats``, ``ZswapStats``, ``ControllerStats``) were plain
dataclasses whose fields callers incremented directly and hand-summed
when aggregating. :class:`StatsFacade` keeps that exact surface —
keyword construction, attribute increments, decrements, properties —
while homing every field in a :class:`~repro.telemetry.registry.
MetricsRegistry` counter, which buys a single shared ``merge()`` /
``as_dict()`` implementation and uniform JSON/CSV export alongside all
other telemetry.

Subclasses declare fields in ``_FIELDS`` (an ordered name -> default
mapping); ``__init_subclass__`` installs one descriptor per field, so
``stats.swap_outs += 1`` is a counter read-modify-write against the
bound registry. Each facade owns a private registry by default; pass
``registry=``/``labels=`` to home the series in a shared per-System
registry instead (per-DIMM driver stats use a ``dimm=<i>`` label).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.telemetry.registry import MetricsRegistry


class _FieldDescriptor:
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj._counters[self.name].value

    def __set__(self, obj, value) -> None:
        obj._counters[self.name].set(value)


class StatsFacade:
    """Base class: dataclass-compatible view over registry counters."""

    #: metric name prefix inside the bound registry.
    _PREFIX = "stats"
    #: field name -> default value, in declaration order.
    _FIELDS: Dict[str, float] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        merged: Dict[str, float] = {}
        for base in reversed(cls.__mro__):
            merged.update(base.__dict__.get("_FIELDS", {}))
        cls._FIELDS = merged
        for name in cls.__dict__.get("_FIELDS", {}):
            setattr(cls, name, _FieldDescriptor(name))

    def __init__(
        self,
        *,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[Dict[str, object]] = None,
        **values,
    ) -> None:
        self._registry = registry if registry is not None else MetricsRegistry()
        self._labels = dict(labels) if labels else {}
        self._counters = {}
        for name, default in self._FIELDS.items():
            counter = self._registry.counter(
                f"{self._PREFIX}.{name}", **self._labels
            )
            counter.set(default)
            self._counters[name] = counter
        for name, value in values.items():
            if name not in self._FIELDS:
                raise TypeError(
                    f"{type(self).__name__} has no field {name!r}"
                )
            self._counters[name].set(value)

    # -- the shared aggregation surface ------------------------------------

    def as_dict(self) -> Dict[str, float]:
        """Field -> value, in declaration order."""
        return {name: self._counters[name].value for name in self._FIELDS}

    def merge(self, other: "StatsFacade") -> "StatsFacade":
        """Field-wise sum of ``other`` into ``self``; returns ``self``."""
        if self._FIELDS.keys() != other._FIELDS.keys():
            raise TypeError(
                f"cannot merge {type(other).__name__} into "
                f"{type(self).__name__}"
            )
        for name, value in other.as_dict().items():
            self._counters[name].inc(value)
        return self

    @classmethod
    def merged(cls, items: Iterable["StatsFacade"]) -> "StatsFacade":
        """A fresh facade holding the field-wise sum of ``items``."""
        total = cls()
        for item in items:
            total.merge(item)
        return total
