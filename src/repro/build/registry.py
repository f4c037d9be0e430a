"""Generic component registry: the extension point of the scenario API.

Every pluggable axis of a scenario — protocol, workload, placement, mobility
model, failure model, MAC contention model — is a *component kind*, and each
concrete implementation registers a factory under a canonical name (plus
optional aliases)::

    from repro.build import register

    @register("protocol", "epidemic", aliases=("epi",), metadata={"constructor": EpidemicNode})
    def make_epidemic(node_id, network, interest_model, routing=None, **kwargs):
        return EpidemicNode(node_id, network, interest_model, **kwargs)

Once registered, the component is constructible from a plain JSON scenario
spec (``repro run --spec``), appears in ``repro list <kind>s``, and is swept
by :class:`~repro.experiments.matrix.ScenarioMatrix` like any built-in.  The
built-in components register themselves in :mod:`repro.build.components`.

The registry is deliberately dumb about factory signatures: each kind fixes
its own calling convention (documented in :mod:`repro.build.components`), and
the :class:`~repro.build.builder.SimulationBuilder` phase that consumes a kind
is the single caller that has to know it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Canonical component kinds used by the simulation builder.  Third-party
#: code may register additional kinds; these are merely the ones the built-in
#: builder phases consume.
PROTOCOL = "protocol"
WORKLOAD = "workload"
PLACEMENT = "placement"
MOBILITY = "mobility"
FAILURE = "failure"
CONTENTION = "contention"

BUILTIN_KINDS = (PROTOCOL, WORKLOAD, PLACEMENT, MOBILITY, FAILURE, CONTENTION)


class UnknownComponentError(ValueError):
    """A component (or component kind) is not registered."""


@dataclass(frozen=True)
class Registration:
    """One registered component.

    Attributes:
        kind: Component kind ("protocol", "workload", ...).
        name: Canonical (lower-case) name.
        factory: The registered factory callable.
        aliases: Alternative names resolving to this component.
        metadata: Free-form traits consumed by the builder (e.g.
            ``needs_routing`` for protocols, ``constructor`` for options).
    """

    kind: str
    name: str
    factory: Callable[..., Any]
    aliases: Tuple[str, ...] = ()
    metadata: Dict[str, Any] = field(default_factory=dict)


def _canonical(name: str) -> str:
    return name.strip().lower()


class ComponentRegistry:
    """Maps (kind, name) pairs to component factories.

    A process normally uses the module-level default registry (see
    :func:`default_registry`); tests construct private instances to register
    throwaway components without leaking global state.
    """

    def __init__(self) -> None:
        self._components: Dict[str, Dict[str, Registration]] = {}
        self._aliases: Dict[str, Dict[str, str]] = {}

    # ---------------------------------------------------------- registration

    def add(
        self,
        kind: str,
        name: str,
        factory: Callable[..., Any],
        aliases: Iterable[str] = (),
        metadata: Optional[Dict[str, Any]] = None,
        replace: bool = False,
    ) -> Registration:
        """Register *factory* under ``(kind, name)``.

        Args:
            kind: Component kind; created on first use.
            name: Canonical name (stored lower-case).
            factory: The factory callable.
            aliases: Additional names resolving to the same component.
            metadata: Free-form traits for builder phases.
            replace: Allow overwriting an existing registration (used by
                tests and by deliberate plugin overrides).

        Returns:
            The stored :class:`Registration`.
        """
        kind = _canonical(kind)
        canonical = _canonical(name)
        components = self._components.setdefault(kind, {})
        alias_map = self._aliases.setdefault(kind, {})
        if canonical in alias_map:
            # Even with replace=True a registration may only overwrite its own
            # canonical name, never hijack another component's alias.
            raise ValueError(
                f"{kind} name {canonical!r} is an alias of "
                f"{alias_map[canonical]!r}; register under a different name"
            )
        if not replace and canonical in components:
            raise ValueError(
                f"{kind} component {canonical!r} is already registered; "
                "pass replace=True to override it"
            )
        registration = Registration(
            kind=kind,
            name=canonical,
            factory=factory,
            aliases=tuple(_canonical(a) for a in aliases),
            metadata=dict(metadata or {}),
        )
        for alias in registration.aliases:
            # Aliases may never shadow a canonical name, nor an alias owned
            # by a *different* component — replace=True does not waive this.
            if alias in components or alias_map.get(alias) not in (None, canonical):
                raise ValueError(
                    f"{kind} alias {alias!r} collides with an existing registration"
                )
        previous = components.get(canonical)
        if previous is not None:
            for stale in previous.aliases:
                alias_map.pop(stale, None)
        components[canonical] = registration
        for alias in registration.aliases:
            alias_map[alias] = canonical
        return registration

    def register(
        self,
        kind: str,
        name: str,
        aliases: Iterable[str] = (),
        metadata: Optional[Dict[str, Any]] = None,
        replace: bool = False,
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator form of :meth:`add`: ``@register("protocol", "spms")``."""

        def decorate(factory: Callable[..., Any]) -> Callable[..., Any]:
            self.add(
                kind, name, factory, aliases=aliases, metadata=metadata, replace=replace
            )
            return factory

        return decorate

    # ------------------------------------------------------------ resolution

    def kinds(self) -> List[str]:
        """Sorted list of kinds with at least one registration."""
        return sorted(k for k, components in self._components.items() if components)

    def available(self, kind: str) -> List[str]:
        """Sorted canonical names registered under *kind*."""
        return sorted(self._components.get(_canonical(kind), {}))

    def normalize(self, kind: str, name: str) -> str:
        """Resolve *name* (canonical or alias, any case) to its canonical name."""
        kind = _canonical(kind)
        components = self._components.get(kind)
        if not components:
            known = ", ".join(self.kinds()) or "<none>"
            raise UnknownComponentError(
                f"unknown component kind {kind!r}; registered kinds: {known}"
            )
        canonical = _canonical(name)
        if canonical in components:
            return canonical
        alias_target = self._aliases.get(kind, {}).get(canonical)
        if alias_target is not None:
            return alias_target
        raise UnknownComponentError(
            f"unknown {kind} {name!r}; expected one of {self.available(kind)}"
        )

    def lookup(self, kind: str, name: str) -> Registration:
        """The full :class:`Registration` for ``(kind, name)``."""
        canonical = self.normalize(kind, name)  # raises UnknownComponentError
        return self._components[_canonical(kind)][canonical]

    def get(self, kind: str, name: str) -> Callable[..., Any]:
        """The factory registered under ``(kind, name)``."""
        return self.lookup(kind, name).factory

    def metadata(self, kind: str, name: str) -> Dict[str, Any]:
        """The metadata dict of ``(kind, name)`` (a copy)."""
        return dict(self.lookup(kind, name).metadata)

    def create(self, kind: str, name: str, *args, **kwargs) -> Any:
        """Instantiate ``(kind, name)`` by calling its factory."""
        return self.get(kind, name)(*args, **kwargs)


# ------------------------------------------------------------ default registry

_DEFAULT_REGISTRY = ComponentRegistry()


def default_registry() -> ComponentRegistry:
    """The process-wide registry, with the built-in components loaded."""
    # Imported lazily so `repro.build.registry` has no dependency on the
    # component implementations (and no import cycle with them).
    from repro.build import components  # noqa: F401  (registration side effect)

    return _DEFAULT_REGISTRY


def register(
    kind: str,
    name: str,
    aliases: Iterable[str] = (),
    metadata: Optional[Dict[str, Any]] = None,
    replace: bool = False,
):
    """Decorator registering a component in the default registry."""
    return _DEFAULT_REGISTRY.register(
        kind, name, aliases=aliases, metadata=metadata, replace=replace
    )


def available(kind: str) -> List[str]:
    """Canonical names registered under *kind* in the default registry."""
    return default_registry().available(kind)
