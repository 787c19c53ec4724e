"""Shared key/alias machinery of the spec registries.

The package keeps three pluggable registries -- constructions
(:mod:`repro.api.registry`), routers (:mod:`repro.routing.registry`) and
traffic workloads (:mod:`repro.routing.traffic`) -- with identical
semantics: case-insensitive keys (``_`` and ``-`` interchangeable),
aliases, collision detection, and a ``replace=True`` mode that may only
take over one key (never hijack another spec's names).  This class is that
machinery, parameterised on the registered noun; the registry modules own
the spec types and the domain-specific wrappers.  Of the three, only
traffic workloads take options (``TrafficSpec.make_options``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple


class SpecRegistry:
    """One key/alias registry of spec objects.

    Specs must expose ``key`` and ``aliases`` attributes.  ``specs`` and
    ``aliases`` are plain dicts (key -> spec, alias -> key) and are part
    of the contract: registry modules may re-export them for tests and
    diagnostics.
    """

    def __init__(self, noun: str) -> None:
        self.noun = noun
        self.specs: Dict[str, Any] = {}
        self.aliases: Dict[str, str] = {}

    @staticmethod
    def normalise(key: str) -> str:
        """Normalise *key* (case-insensitive, ``_`` == ``-``)."""
        return key.strip().lower().replace("_", "-")

    def register(self, spec: Any, replace: bool = False) -> Any:
        """Register *spec* (and its aliases); ``ValueError`` on collisions.

        ``replace=True`` only licenses taking over *this* spec's key: the
        replacement's names must not hijack other registered specs, and
        the previous spec's aliases stop resolving.  Validation happens
        before any mutation, so a rejected registration leaves the
        registry untouched.
        """
        key = self.normalise(spec.key)
        names = [key] + [self.normalise(alias) for alias in spec.aliases]
        if not replace:
            for name in names:
                if name in self.specs or name in self.aliases:
                    raise ValueError(f"{self.noun} key {name!r} is already registered")
        else:
            if key in self.aliases:
                raise ValueError(
                    f"key {key!r} is an alias of {self.aliases[key]!r}; "
                    f"replace that spec instead"
                )
            for name in names[1:]:
                if name in self.specs or self.aliases.get(name, key) != key:
                    raise ValueError(
                        f"alias {name!r} of replacement spec {key!r} collides "
                        f"with another registered {self.noun}"
                    )
            if self.specs.get(key) is not spec:
                for alias in [a for a, target in self.aliases.items() if target == key]:
                    del self.aliases[alias]
        self.specs[key] = spec
        for name in names[1:]:
            self.aliases[name] = key
        return spec

    def get(self, key: str) -> Any:
        """Look up a spec by key or alias (case-insensitive)."""
        name = self.normalise(key)
        name = self.aliases.get(name, name)
        try:
            return self.specs[name]
        except KeyError:
            known = ", ".join(sorted(self.specs))
            raise KeyError(
                f"unknown {self.noun} {key!r}; registered keys: {known}"
            ) from None

    def available(self) -> List[Any]:
        """Every registered spec, in registration order."""
        return list(self.specs.values())

    def keys(self) -> Tuple[str, ...]:
        """The registered keys, in registration order."""
        return tuple(self.specs)
