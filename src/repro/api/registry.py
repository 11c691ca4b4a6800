"""Simulator registry: resolve timing models by name.

Every timing model in the package (and any future one) is registered under a
short name ("interval", "detailed", "oneipc") together with a schema of the
keyword options its constructor accepts beyond the machine configuration.
The registry is the single place the rest of the repository — the
:class:`~repro.api.session.Session` builder, the experiment harness and the
``python -m repro`` CLI — looks simulators up, so adding a model is one
``@register_simulator(...)`` decoration away from being sweepable and
CLI-visible.

Typical use::

    from repro.api import create_simulator, list_simulators

    print([entry.name for entry in list_simulators()])
    simulator = create_simulator("interval", machine, use_old_window=False)
    stats = simulator.run(workload)

Registering a new model::

    @register_simulator(
        "mymodel",
        description="my experimental timing model",
        options=[SimulatorOption("knob", int, 4, "some knob")],
    )
    class MySimulator(MulticoreSimulator):
        ...

A simulator must treat the workload it runs as read-only — the
``Workload``, its traces, their ``Instruction`` objects and their
``TraceBatch`` — because :func:`~repro.api.session.run_spec` hands one built
workload to every back-to-back job on the same spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..common.config import MachineConfig

__all__ = [
    "SimulatorOption",
    "RegisteredSimulator",
    "SimulatorRegistry",
    "UnknownSimulatorError",
    "DuplicateSimulatorError",
    "InvalidOptionError",
    "register_simulator",
    "create_simulator",
    "get_simulator",
    "list_simulators",
    "simulator_names",
    "DEFAULT_REGISTRY",
]


class UnknownSimulatorError(KeyError):
    """Raised when a simulator name is not in the registry."""

    def __init__(self, name: str, known: Sequence[str]) -> None:
        super().__init__(name)
        self.name = name
        self.known = list(known)

    def __str__(self) -> str:
        return f"unknown simulator {self.name!r}; registered: {sorted(self.known)}"


class DuplicateSimulatorError(ValueError):
    """Raised when a name is registered twice without ``replace=True``."""


class InvalidOptionError(ValueError):
    """Raised when simulator options do not match the registered schema."""


@dataclass(frozen=True)
class SimulatorOption:
    """One keyword option a simulator accepts beyond the machine config.

    Attributes
    ----------
    name:
        Keyword-argument name on the simulator constructor.
    type:
        Python type of the option (used for CLI string coercion).
    default:
        Value used when the option is not given.
    help:
        One-line description shown by ``python -m repro list-simulators``.
    """

    name: str
    type: type = bool
    default: object = None
    help: str = ""

    def coerce(self, value: object) -> object:
        """Coerce ``value`` (possibly a CLI string) to the option's type."""
        if isinstance(value, self.type):
            return value
        if self.type is bool:
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("1", "true", "yes", "on"):
                    return True
                if lowered in ("0", "false", "no", "off"):
                    return False
            raise InvalidOptionError(
                f"option {self.name!r} expects a boolean, got {value!r}"
            )
        try:
            return self.type(value)  # type: ignore[call-arg]
        except (TypeError, ValueError) as exc:
            raise InvalidOptionError(
                f"option {self.name!r} expects {self.type.__name__}, got {value!r}"
            ) from exc


@dataclass(frozen=True)
class RegisteredSimulator:
    """A registry entry: factory plus option schema."""

    name: str
    factory: Callable[..., object]
    options: Tuple[SimulatorOption, ...] = ()
    description: str = ""

    def option(self, name: str) -> SimulatorOption:
        """Look up one option of this simulator's schema."""
        for opt in self.options:
            if opt.name == name:
                return opt
        raise InvalidOptionError(
            f"simulator {self.name!r} has no option {name!r}; "
            f"known options: {[o.name for o in self.options]}"
        )

    def validate_options(self, options: Dict[str, object]) -> Dict[str, object]:
        """Check ``options`` against the schema, coercing value types."""
        return {name: self.option(name).coerce(value) for name, value in options.items()}


class SimulatorRegistry:
    """A name → simulator-factory mapping with per-model option schemas."""

    def __init__(self) -> None:
        self._entries: Dict[str, RegisteredSimulator] = {}

    # -- registration ------------------------------------------------------------

    def register(
        self,
        name: str,
        factory: Optional[Callable[..., object]] = None,
        *,
        options: Iterable[SimulatorOption] = (),
        description: str = "",
        replace: bool = False,
    ):
        """Register ``factory`` under ``name``; usable as a decorator.

        With ``factory`` omitted, returns a class decorator::

            @registry.register("interval", options=[...])
            class IntervalSimulator(MulticoreSimulator): ...
        """

        def _register(target: Callable[..., object]) -> Callable[..., object]:
            if name in self._entries and not replace:
                raise DuplicateSimulatorError(
                    f"simulator {name!r} is already registered "
                    f"(pass replace=True to override)"
                )
            summary = description
            if not summary:
                doc = (target.__doc__ or "").strip()
                summary = doc.splitlines()[0] if doc else ""
            self._entries[name] = RegisteredSimulator(
                name=name,
                factory=target,
                options=tuple(options),
                description=summary,
            )
            return target

        if factory is not None:
            return _register(factory)
        return _register

    def unregister(self, name: str) -> None:
        """Remove one entry (mainly for tests)."""
        self._entries.pop(name, None)

    # -- lookup ------------------------------------------------------------------

    def get(self, name: str) -> RegisteredSimulator:
        """Return the entry for ``name`` or raise :class:`UnknownSimulatorError`."""
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownSimulatorError(name, list(self._entries)) from None

    def create(self, name: str, machine: MachineConfig, **options: object):
        """Instantiate the simulator registered under ``name``.

        Options are validated (and coerced) against the registered schema, so
        a typo'd keyword fails with the list of valid options instead of a
        ``TypeError`` deep inside a constructor.
        """
        entry = self.get(name)
        validated = entry.validate_options(dict(options))
        return entry.factory(machine, **validated)

    def names(self) -> List[str]:
        """Sorted names of all registered simulators."""
        return sorted(self._entries)

    def entries(self) -> List[RegisteredSimulator]:
        """All registry entries, sorted by name."""
        return [self._entries[name] for name in self.names()]

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide registry used by the Session API, experiments and CLI.
DEFAULT_REGISTRY = SimulatorRegistry()


def register_simulator(
    name: str,
    *,
    options: Iterable[SimulatorOption] = (),
    description: str = "",
    replace: bool = False,
    registry: Optional[SimulatorRegistry] = None,
):
    """Class decorator registering a simulator in ``registry`` (default: global)."""
    target_registry = registry if registry is not None else DEFAULT_REGISTRY
    return target_registry.register(
        name, options=options, description=description, replace=replace
    )


def create_simulator(name: str, machine: MachineConfig, **options: object):
    """Instantiate a simulator by name from the default registry."""
    return DEFAULT_REGISTRY.create(name, machine, **options)


def get_simulator(name: str) -> RegisteredSimulator:
    """Return the default-registry entry for ``name``."""
    return DEFAULT_REGISTRY.get(name)


def list_simulators() -> List[RegisteredSimulator]:
    """All entries of the default registry, sorted by name."""
    return DEFAULT_REGISTRY.entries()


def simulator_names() -> List[str]:
    """Sorted simulator names of the default registry."""
    return DEFAULT_REGISTRY.names()


def _register_builtin_simulators() -> None:
    """Register the three timing models that ship with the package."""
    from ..core.interval_sim import IntervalSimulator
    from ..core.oneipc import OneIPCSimulator
    from ..detailed.detailed_sim import DetailedSimulator

    if "interval" not in DEFAULT_REGISTRY:
        DEFAULT_REGISTRY.register(
            "interval",
            IntervalSimulator,
            description="interval analysis timing model (the paper's contribution)",
            options=(
                SimulatorOption(
                    "use_old_window",
                    bool,
                    True,
                    "estimate dispatch rate / branch resolution from the old window",
                ),
                SimulatorOption(
                    "model_overlap",
                    bool,
                    True,
                    "model miss events overlapped under long-latency loads",
                ),
            ),
        )
    if "detailed" not in DEFAULT_REGISTRY:
        DEFAULT_REGISTRY.register(
            "detailed",
            DetailedSimulator,
            description="cycle-level out-of-order reference simulator",
        )
    if "oneipc" not in DEFAULT_REGISTRY:
        DEFAULT_REGISTRY.register(
            "oneipc",
            OneIPCSimulator,
            description="naive one-IPC baseline (miss penalties added serially)",
        )


_register_builtin_simulators()
