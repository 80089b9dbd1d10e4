"""Statistics objects with plain fields that a registry reads at snapshot.

The stack's statistics objects (``SwapStats``, ``TrafficStats``,
``DriverStats``, ``ZswapStats``, ``PipelineStats``) sit on every store
and load, so each
field is a plain slot: ``stats.swap_outs += 1`` is ordinary attribute
arithmetic. A subclass declares its fields once, in ``_FIELDS`` (an
ordered name -> default mapping), and lists them as its
``__slots__``; :class:`Stats` supplies keyword construction and the
shared ``as_dict()`` / ``merge()`` / ``merged()``.

Export costs nothing per increment. Pass ``registry=`` (and optionally
``labels=``) and each field gets one read-only
:class:`~repro.telemetry.registry.FieldCounter` in that registry, named
``<_PREFIX>.<field>``, which reads the field whenever the registry is
snapshotted, merged or summed. Without a registry nothing is bound.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.telemetry.registry import MetricsRegistry


class Stats:
    """Base class: plain-field statistics with registry views."""

    __slots__ = ()

    #: metric name prefix inside the bound registry.
    _PREFIX = "stats"
    #: field name -> default value, in declaration order.
    _FIELDS: Dict[str, float] = {}

    def __init__(
        self,
        *,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[Dict[str, object]] = None,
        **values,
    ) -> None:
        for name, default in self._FIELDS.items():
            setattr(self, name, default)
        for name, value in values.items():
            if name not in self._FIELDS:
                raise TypeError(
                    f"{type(self).__name__} has no field {name!r}"
                )
            setattr(self, name, value)
        if registry is not None:
            for name in self._FIELDS:
                registry.bind_field(
                    f"{self._PREFIX}.{name}", self, name, **(labels or {})
                )

    # -- the shared aggregation surface ------------------------------------

    def as_dict(self) -> Dict[str, float]:
        """Field -> value, in declaration order."""
        return {name: getattr(self, name) for name in self._FIELDS}

    def merge(self, other: "Stats") -> "Stats":
        """Field-wise sum of ``other`` into ``self``; returns ``self``."""
        if self._FIELDS.keys() != other._FIELDS.keys():
            raise TypeError(
                f"cannot merge {type(other).__name__} into "
                f"{type(self).__name__}"
            )
        for name, value in other.as_dict().items():
            setattr(self, name, getattr(self, name) + value)
        return self

    @classmethod
    def merged(cls, items: Iterable["Stats"]) -> "Stats":
        """A fresh, unbound object holding the field-wise sum of ``items``."""
        total = cls()
        for item in items:
            total.merge(item)
        return total
