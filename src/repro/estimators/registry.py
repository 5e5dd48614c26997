"""String-keyed estimator registry with QoS tiers and plugin discovery.

Estimators register under a short name (``music2d``, ``mdtrack``, ...)
and a QoS tier; tier names themselves resolve to a default estimator
(``precise`` -> ``music2d``, ``balanced`` -> ``mdtrack``, ``coarse`` ->
``tof``), so a caller can ask for a service level instead of an
algorithm.  This is the seam the breaker-downgrade machinery in
:class:`~repro.server.SpotFiServer` uses: when an AP's circuit breaker
opens, the fix is *downgraded* to a cheaper tier instead of shedding
the AP.

Third-party estimators plug in two ways, both discovered once per
process, when the ``repro.estimators`` package is imported:

* an ``importlib.metadata`` entry point in the ``repro.estimators``
  group whose module (or callable) registers estimator classes via
  :func:`register`;
* the ``REPRO_ESTIMATOR_PLUGINS`` environment variable — a
  comma-separated list of ``module`` or ``module:callable`` specs —
  for deployments without packaging metadata.
"""

from __future__ import annotations

import os
from importlib import import_module, metadata
from typing import Callable, Dict, List, Tuple, Type

from repro.errors import ConfigurationError, UnknownEstimatorError
from repro.estimators.base import Estimator, EstimatorContext

#: QoS tiers, most to least accurate.
TIERS: Tuple[str, ...] = ("precise", "balanced", "coarse")

#: Which estimator a bare tier name resolves to.
TIER_DEFAULTS: Dict[str, str] = {
    "precise": "music2d",
    "balanced": "mdtrack",
    "coarse": "tof",
}

#: Entry-point group third-party packages register under.
PLUGIN_GROUP = "repro.estimators"

#: Env var naming extra plugin modules (``module[:callable]``, comma-sep).
PLUGIN_ENV = "REPRO_ESTIMATOR_PLUGINS"

_REGISTRY: Dict[str, Type[Estimator]] = {}


def register(
    name: str, tier: str = "balanced", override: bool = False
) -> Callable[[Type[Estimator]], Type[Estimator]]:
    """Class decorator registering an :class:`Estimator` under ``name``.

    Stamps ``cls.name`` and ``cls.tier``.  Re-registering an existing
    name raises :class:`~repro.errors.ConfigurationError` unless
    ``override=True`` (the plugin-override path).
    """
    if tier not in TIERS:
        raise ConfigurationError(
            f"unknown QoS tier {tier!r}; expected one of {', '.join(TIERS)}"
        )
    key = name.strip().lower()
    if not key:
        raise ConfigurationError("estimator name must be non-empty")

    def decorator(cls: Type[Estimator]) -> Type[Estimator]:
        if not override and key in _REGISTRY:
            raise ConfigurationError(
                f"estimator {key!r} is already registered "
                f"({_REGISTRY[key].__qualname__}); pass override=True to replace"
            )
        cls.name = key
        cls.tier = tier
        _REGISTRY[key] = cls
        return cls

    return decorator


def unregister(name: str) -> None:
    """Remove an estimator registration (test/plugin teardown helper)."""
    _REGISTRY.pop(name.strip().lower(), None)


def _load_builtins() -> None:
    """Import the built-in estimator modules (their decorators register)."""
    from repro.estimators import aoa_baselines  # noqa: F401
    from repro.estimators import mdtrack  # noqa: F401
    from repro.estimators import music2d  # noqa: F401
    from repro.estimators import tof  # noqa: F401


def _iter_entry_points() -> List[object]:
    """Entry points in :data:`PLUGIN_GROUP`, across importlib API versions."""
    eps = metadata.entry_points()
    if hasattr(eps, "select"):
        return list(eps.select(group=PLUGIN_GROUP))
    return list(eps.get(PLUGIN_GROUP, ()))  # type: ignore[attr-defined]


def _load_spec(spec: str) -> None:
    """Load one ``module[:callable]`` plugin spec from the environment."""
    module_name, _, attr = spec.partition(":")
    try:
        module = import_module(module_name.strip())
    except ImportError as exc:
        raise ConfigurationError(
            f"estimator plugin module {module_name!r} failed to import: {exc}"
        ) from exc
    if attr:
        try:
            hook = getattr(module, attr.strip())
        except AttributeError as exc:
            raise ConfigurationError(
                f"estimator plugin {spec!r} names a missing attribute"
            ) from exc
        if not callable(hook):
            raise ConfigurationError(
                f"estimator plugin {spec!r} attribute is not callable"
            )
        hook()


def _load_plugins() -> None:
    """Discover plugins: entry points first, then the environment list."""
    for entry in _iter_entry_points():
        try:
            loaded = entry.load()  # type: ignore[attr-defined]
        except ImportError as exc:
            raise ConfigurationError(
                f"estimator entry point {getattr(entry, 'name', entry)!r} "
                f"failed to load: {exc}"
            ) from exc
        if callable(loaded) and not (
            isinstance(loaded, type) and issubclass(loaded, Estimator)
        ):
            loaded()
    env = os.environ.get(PLUGIN_ENV, "")
    for spec in env.split(","):
        spec = spec.strip()
        if spec:
            _load_spec(spec)


def available() -> List[str]:
    """Registered estimator names, sorted (builtins + plugins)."""
    return sorted(_REGISTRY)


def resolve_name(name_or_tier: str) -> str:
    """Resolve an estimator or tier name to a registered estimator name.

    Raises :class:`~repro.errors.UnknownEstimatorError` listing what is
    available when the name matches neither.
    """
    key = (name_or_tier or "").strip().lower()
    key = TIER_DEFAULTS.get(key, key)
    if key not in _REGISTRY:
        raise UnknownEstimatorError(
            f"unknown estimator {name_or_tier!r}; available estimators: "
            f"{', '.join(sorted(_REGISTRY))}; tiers: {', '.join(TIERS)}"
        )
    return key


def tier_of(name_or_tier: str) -> str:
    """The QoS tier of an estimator (or of a tier's default estimator)."""
    return _REGISTRY[resolve_name(name_or_tier)].tier


def create(name_or_tier: str, context: EstimatorContext) -> Estimator:
    """Instantiate the named estimator (or a tier's default) for a context."""
    return _REGISTRY[resolve_name(name_or_tier)](context)
