"""Decorator-based name registries shared by the pluggable subsystems.

Three extension points dispatch by name from a :class:`RunConfig`:
partitioners (``config.partitioner``), static cache policies and dynamic
cache policies (``config.cache_policy``).  They all share this one registry
type so that registration, lookup, and — crucially — *error reporting* are
uniform: an unknown name always raises ``ValueError`` naming the registry
kind and the sorted list of valid names, and
:meth:`repro.core.config.RunConfig.validate` surfaces the same lists at
config-construction time instead of deep inside a preprocessing stage.

Registering a new implementation is one decorator::

    from repro.partition.registry import PARTITIONERS

    @PARTITIONERS.register("spectral")
    def spectral_partition(dataset, config):
        ...
        return Partition(assignment, config.num_machines)

and the name immediately becomes valid in configs, error messages, and
``RunConfig.validate``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple


class Registry:
    """An ordered name -> factory mapping with decorator registration.

    Iteration follows registration order (the "zoo order" used by tables and
    examples); :meth:`names` is sorted for stable error messages.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: Dict[str, Any] = {}

    # -- registration ---------------------------------------------------
    def register(self, name: str, obj: Optional[Any] = None):
        """Register ``obj`` under ``name``; usable as a decorator.

        ``@REG.register("x")`` on a class or function registers it and
        returns it unchanged; ``REG.register("x", obj)`` registers directly.
        """
        if obj is not None:
            self._add(name, obj)
            return obj

        def decorator(target):
            self._add(name, target)
            return target

        return decorator

    def _add(self, name: str, obj: Any) -> None:
        if name in self._entries:
            raise ValueError(f"duplicate {self.kind} registration {name!r}")
        self._entries[name] = obj

    # -- lookup ---------------------------------------------------------
    def get(self, name: str) -> Any:
        """Entry for ``name``; unknown names raise ``ValueError`` listing
        the sorted valid names."""
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; valid: {self.names()}"
            ) from None

    def names(self) -> List[str]:
        """Sorted registered names (the error-message order)."""
        return sorted(self._entries)

    def items(self) -> List[Tuple[str, Any]]:
        return list(self._entries.items())

    def __getitem__(self, name: str) -> Any:
        return self.get(name)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, names={self.names()})"
