"""Per-subsystem counter registries.

Subsystems keep their hot-path counters as plain integer attributes (an
increment must stay one ``+= 1``), but *declare* them here at construction
time.  The registry is then the one place that can enumerate, snapshot and
reset every counter in a simulation — what the ad-hoc counters scattered
through the vhost handlers, the KVM exit statistics, the redirector and
the scheduling tracker could never do collectively.

Two provider shapes are supported:

* **attribute providers** — ``register(path, obj, names)``: the counters
  are integer attributes of ``obj``; reading is a ``getattr`` at snapshot
  time, resetting writes 0 back.
* **function providers** — ``register_fn(path, snapshot_fn, reset_fn)``:
  for counters that live behind an API (e.g. :class:`ExitStats`);
  ``snapshot_fn()`` returns a ``name -> int`` mapping.

Registration is idempotent per path (last registration wins), so a
rebuilt subsystem under the same name simply replaces its group.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple

__all__ = ["CounterRegistry"]


class _AttrGroup:
    __slots__ = ("provider", "names")

    def __init__(self, provider: object, names: Tuple[str, ...]):
        self.provider = provider
        self.names = names

    def snapshot(self) -> Dict[str, int]:
        return {name: int(getattr(self.provider, name)) for name in self.names}

    def reset(self) -> None:
        for name in self.names:
            setattr(self.provider, name, 0)


class _FnGroup:
    __slots__ = ("snapshot_fn", "reset_fn")

    def __init__(self, snapshot_fn: Callable[[], Dict[str, int]],
                 reset_fn: Optional[Callable[[], None]]):
        self.snapshot_fn = snapshot_fn
        self.reset_fn = reset_fn

    def snapshot(self) -> Dict[str, int]:
        return {name: int(value) for name, value in self.snapshot_fn().items()}

    def reset(self) -> None:
        if self.reset_fn is not None:
            self.reset_fn()


class CounterRegistry:
    """Registry of named counter groups (one group per subsystem instance)."""

    def __init__(self) -> None:
        self._groups: Dict[str, object] = {}
        self._prefix_cache: Dict[str, Tuple[str, ...]] = {}

    # ------------------------------------------------------------ registration
    def register(self, path: str, provider: object, names: Iterable[str]) -> None:
        """Declare integer attributes ``names`` of ``provider`` under ``path``.

        Values are read lazily at snapshot time, so attributes may be
        assigned after registration (subclasses extend their parents'
        counter sets before their own ``__init__`` body runs).
        """
        self._groups[path] = _AttrGroup(provider, tuple(names))
        self._note_changed()

    def register_fn(
        self,
        path: str,
        snapshot_fn: Callable[[], Dict[str, int]],
        reset_fn: Optional[Callable[[], None]] = None,
    ) -> None:
        """Declare a function-backed counter group under ``path``."""
        self._groups[path] = _FnGroup(snapshot_fn, reset_fn)
        self._note_changed()

    def unregister_prefix(self, prefix: str) -> int:
        """Drop every group whose path starts with ``prefix`` (VM teardown)."""
        doomed = [p for p in self._groups if p.startswith(prefix)]
        for path in doomed:
            del self._groups[path]
        if doomed:
            self._note_changed()
        return len(doomed)

    def _note_changed(self) -> None:
        """Invalidate the per-prefix path caches (registration changed)."""
        if self._prefix_cache:
            self._prefix_cache.clear()

    # ---------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._groups)

    def __contains__(self, path: str) -> bool:
        return path in self._groups

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """``{path: {counter: value}}`` for every registered group."""
        return {path: group.snapshot() for path, group in sorted(self._groups.items())}

    def snapshot_group(self, prefix: str) -> Dict[str, Dict[str, int]]:
        """``{path: {counter: value}}`` for groups matching ``prefix``.

        A group matches on an exact path, or when its path extends the
        prefix at a ``.`` or ``/`` boundary (``"kvm.vm"`` matches
        ``"kvm.vm.tested.exits"`` but not ``"kvm.vmx"``).  The matching
        path set is cached per prefix and invalidated on registration
        changes, so a periodic sampler pays O(matched groups) per call —
        not a full-registry walk — in steady state.
        """
        paths = self._prefix_cache.get(prefix)
        if paths is None:
            boundary = (prefix + ".", prefix + "/")
            paths = tuple(sorted(
                p for p in self._groups
                if p == prefix or p.startswith(boundary)
            ))
            self._prefix_cache[prefix] = paths
        groups = self._groups
        return {path: groups[path].snapshot() for path in paths}

    def flat(self) -> Dict[str, int]:
        """``{"path.counter": value}`` — the machine-diffable form."""
        out: Dict[str, int] = {}
        for path, group in sorted(self._groups.items()):
            for name, value in group.snapshot().items():
                out[f"{path}.{name}"] = value
        return out

    # ------------------------------------------------------------------ reset
    def reset(self) -> None:
        """Zero every resettable counter (between measurement runs)."""
        for group in self._groups.values():
            group.reset()
