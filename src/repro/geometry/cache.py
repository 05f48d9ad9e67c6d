"""Content-addressed caches shared by the campaign and planning paths.

Campaign workloads run thousands of cells that share immutable structure:
the same scenario layout appears once per strategy in a grid, and the same
tour is rebuilt once per replication.  This module provides the one shared
caching layer for that:

* :class:`ContentCache` — a small LRU keyed by content, registered by name;
  the tour memoization in :mod:`repro.graphs.hamiltonian`, the campaign's
  scenario prototypes and shared plans (:mod:`repro.runner.campaign`) and
  the batch rows (:mod:`repro.sim.batchpath`) are all instances;
* :func:`points_fingerprint` — the stable point-set content hash keying the
  tour memoization;
* :func:`scenario_fingerprint` — a stable content hash over everything a
  planner or simulator reads from a scenario; the equivalence tests use it
  to prove prototype copies are exact, and it is the supported key for any
  scenario-derived reuse layered on top.  (The campaign prototype cache in
  :mod:`repro.runner.campaign` keys on the *generative* content instead —
  family + declared params + effective seed — which identifies the same
  scenarios without building them first.)

Caches are **purely memoizing**: a hit returns a value bit-for-bit identical
to what the miss path computes, so enabling or disabling caching never
changes a simulation record.  All caches register themselves in a module
registry so :func:`clear_caches`, :func:`cache_stats` and the global
:func:`configure` switch cover every consumer at once.

>>> from repro.geometry.cache import cache_stats, clear_caches
>>> from repro.graphs.hamiltonian import build_hamiltonian_circuit
>>> clear_caches()
>>> coords = {"a": (0.0, 0.0), "b": (3.0, 0.0), "c": (3.0, 4.0), "d": (0.0, 4.0)}
>>> first = build_hamiltonian_circuit(coords)
>>> build_hamiltonian_circuit(dict(coords)) is first   # same content: served from cache
True
>>> cache_stats()["hamiltonian_tour"]["hits"]
1
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Iterable

import numpy as np

from repro.geometry.point import as_array
from repro.obs import registry as _obs

__all__ = [
    "ContentCache",
    "register_cache",
    "configure",
    "cache_enabled",
    "caching_disabled",
    "clear_caches",
    "cache_stats",
    "points_fingerprint",
    "scenario_fingerprint",
]


# --------------------------------------------------------------------------- #
# Cache registry and the global switch
# --------------------------------------------------------------------------- #

_REGISTRY: "dict[str, ContentCache]" = {}
_LOCK = threading.Lock()

# One global switch for every geometry/tour/scenario cache.  The environment
# variable gives CI and benchmark harnesses an off-switch without code changes
# (case/whitespace-insensitive: "0", "false", "no", "off" all disable).
# Byte-invisible by proof: the cache equivalence tests assert records are
# identical with the switch on or off, so this env read can never change a
# result — exactly the justification the determinism lint suppression wants.
_ENABLED: bool = (
    os.environ.get("REPRO_GEOMETRY_CACHE", "1").strip().lower()  # repro: allow[det-env-branch]
    not in ("0", "false", "no", "off")
)


class ContentCache:
    """A small LRU cache keyed by content fingerprints.

    Parameters
    ----------
    name:
        Registry name (must be unique); shows up in :func:`cache_stats`.
    maxsize:
        Maximum number of retained entries; the least recently used entry is
        evicted first.

    Notes
    -----
    Instances auto-register themselves so the module-level
    :func:`clear_caches` / :func:`cache_stats` / :func:`configure` cover
    them.  Lookups honour the global switch: with caching disabled,
    :meth:`get` always misses and :meth:`put` is a no-op, which makes an
    on/off comparison a pure code-path toggle.
    """

    def __init__(self, name: str, maxsize: int = 256) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.name = name
        self.maxsize = maxsize
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        register_cache(self)

    def get(self, key: Any, default: Any = None) -> Any:
        if not _ENABLED:
            self.misses += 1
            _obs.inc("cache_requests", cache=self.name, outcome="miss")
            return default
        with _LOCK:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                _obs.inc("cache_requests", cache=self.name, outcome="miss")
                return default
            self._data.move_to_end(key)
            self.hits += 1
            _obs.inc("cache_requests", cache=self.name, outcome="hit")
            return value

    def put(self, key: Any, value: Any) -> None:
        if not _ENABLED:
            return
        with _LOCK:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
                _obs.inc("cache_evictions", cache=self.name)

    def get_or_compute(self, key: Any, compute: Callable[[], Any]) -> Any:
        """Cached value for ``key``, computing (and storing) it on a miss."""
        sentinel = object()
        value = self.get(key, sentinel)
        if value is sentinel:
            value = compute()
            self.put(key, value)
        return value

    def clear(self) -> None:
        with _LOCK:
            self._data.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> dict:
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


def register_cache(cache: ContentCache) -> ContentCache:
    """Add ``cache`` to the registry (idempotent for the same instance)."""
    existing = _REGISTRY.get(cache.name)
    if existing is not None and existing is not cache:
        raise ValueError(f"a cache named {cache.name!r} is already registered")
    _REGISTRY[cache.name] = cache
    return cache


def configure(*, enabled: bool | None = None) -> None:
    """Flip the global cache switch (``None`` leaves it unchanged).

    Disabling does not drop stored entries — re-enabling resumes hits — so a
    benchmark can interleave cached and uncached phases cheaply.  Use
    :func:`clear_caches` for a cold start.
    """
    global _ENABLED
    if enabled is not None:
        _ENABLED = bool(enabled)


def cache_enabled() -> bool:
    """Whether the geometry/tour/scenario caches are currently active."""
    return _ENABLED


@contextmanager
def caching_disabled():
    """Context manager that turns every registered cache off inside the block.

    >>> from repro.geometry.cache import caching_disabled, cache_enabled
    >>> with caching_disabled():
    ...     cache_enabled()
    False
    """
    previous = _ENABLED
    configure(enabled=False)
    try:
        yield
    finally:
        configure(enabled=previous)


def clear_caches() -> None:
    """Empty every registered cache and reset its hit/miss counters."""
    for cache in _REGISTRY.values():
        cache.clear()


def cache_stats() -> dict[str, dict]:
    """Per-cache ``{size, maxsize, hits, misses, evictions}`` stats, by name."""
    return {name: cache.stats() for name, cache in sorted(_REGISTRY.items())}


# --------------------------------------------------------------------------- #
# Content fingerprints
# --------------------------------------------------------------------------- #

def points_fingerprint(points: Iterable) -> bytes:
    """Stable content hash of a point collection (order-sensitive).

    Two collections with equal coordinates in equal order share a
    fingerprint regardless of whether they are ``Point`` objects, tuples or
    numpy rows.
    """
    arr = np.ascontiguousarray(as_array(points))
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())
    return digest.digest()


def scenario_fingerprint(scenario) -> str:
    """Stable content hash of a :class:`~repro.network.scenario.Scenario`.

    Covers everything the planners and the simulator read: target ids,
    positions, weights and data rates; the sink; mule ids, deployment
    positions, velocities and battery capacities; the optional recharge
    station; the field bounds; and the physical parameters.  Two scenarios
    generated from the same spec and seed hash identically, so the hash is a
    safe reuse key for tours and plans built from scenario geometry.
    """
    digest = hashlib.blake2b(digest_size=16)

    def feed(*parts: object) -> None:
        for part in parts:
            digest.update(repr(part).encode())
            digest.update(b"\x1f")

    for t in scenario.targets:
        feed("target", t.id, t.position.x, t.position.y, t.weight, t.data_rate)
    feed("sink", scenario.sink.id, scenario.sink.position.x, scenario.sink.position.y)
    for m in scenario.mules:
        capacity = m.battery.capacity if m.battery is not None else None
        feed("mule", m.id, m.position.x, m.position.y, m.velocity,
             m.sensing_range, m.communication_range, capacity)
    station = scenario.recharge_station
    if station is not None:
        feed("recharge", station.id, station.position.x, station.position.y)
    feed("field", scenario.field)
    feed("params", scenario.params)
    return digest.hexdigest()
