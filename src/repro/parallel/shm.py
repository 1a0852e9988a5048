"""Zero-copy data plane: numpy arrays and pickled objects in shared memory.

Worker processes used to receive every byte of their payload through the
``ProcessPoolExecutor`` pipe: the extracted flow of a variant re-pickled per
corner.  This module replaces that with ``multiprocessing.shared_memory``:

* :class:`SharedArena` packs named numpy arrays into **one** segment; its
  picklable :class:`ArenaHandle` (name + per-field dtype/shape/offset) is
  all that travels through the pipe.  Workers :func:`attach_arena` once per
  segment (an LRU keeps the mapping across tasks) and get zero-copy views —
  writable ones, so a worker's writes are visible to the parent.
* :func:`ship_object` / :func:`load_object` pickle an arbitrary object
  (e.g. a :class:`~repro.core.flow.FlowResult`) into an arena **once**; every
  task referencing it ships a tiny :class:`ObjectRef`, and the worker-side
  object cache unpickles once per segment, not once per task — the
  cache-aware affinity half of the scheduler's data plane.

Creation falls back to inline (by-value) payloads whenever shared memory is
unavailable or the segment cannot be allocated (e.g. a full ``/dev/shm``):
:class:`InlineArena` / :class:`InlineObjectRef` carry the data through the
pipe instead, with identical semantics except that output arrays must then
travel back in the task result.  Lifecycle: the parent that created a
segment owns ``unlink``; pool workers share the parent's
``resource_tracker`` process, so their attachments need no bookkeeping of
their own (see :func:`attach_arena`).
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import AnalysisError
from ..obs import get_logger

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:                                    # pragma: no cover
    _shared_memory = None

logger = get_logger(__name__)

_ALIGN = 64          #: field alignment inside a segment (cache-line friendly)
_ATTACH_CAP = 8      #: worker-side LRU: segments kept mapped
_OBJECT_CAP = 8      #: worker-side LRU: unpickled shipped objects


@dataclass(frozen=True)
class ArenaField:
    """Location of one array inside a segment."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class ArenaHandle:
    """Picklable address of a :class:`SharedArena` (what tasks ship)."""

    name: str                       #: shared-memory segment name
    size: int
    fields: tuple[ArenaField, ...]


def _layout(arrays: dict[str, np.ndarray]) -> tuple[tuple, int]:
    fields = []
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        fields.append((name, array, ArenaField(
            name=name, dtype=array.dtype.str, shape=array.shape,
            offset=offset)))
        offset += array.nbytes
    return tuple(fields), max(offset, 1)


class SharedArena:
    """Named numpy arrays packed into one shared-memory segment.

    Created by the parent (:meth:`create` copies every input array in);
    :meth:`view` returns the parent's zero-copy view of a field — after the
    workers are done, reading the ``out`` field's view *is* collecting the
    result.  :meth:`dispose` closes and unlinks; call it exactly once, from
    the creating process, after the last consumer finished.
    """

    def __init__(self, shm, handle: ArenaHandle):
        self._shm = shm
        self.handle = handle

    @classmethod
    def create(cls, arrays: dict[str, np.ndarray],
               ) -> "SharedArena | InlineArena":
        """Pack ``arrays`` into a fresh segment; inline fallback on failure."""
        if _shared_memory is None:
            return InlineArena.create(arrays)
        fields, size = _layout(arrays)
        try:
            shm = _shared_memory.SharedMemory(create=True, size=size)
        except (OSError, ValueError) as exc:
            logger.warning(
                "shared-memory arena unavailable (%s); falling back to "
                "inline payloads", exc)
            return InlineArena.create(arrays)
        handle = ArenaHandle(name=shm.name, size=size,
                             fields=tuple(field for _, _, field in fields))
        arena = cls(shm, handle)
        for name, array, field in fields:
            arena.view(name)[...] = array
        return arena

    def view(self, name: str) -> np.ndarray:
        for field in self.handle.fields:
            if field.name == name:
                return np.ndarray(field.shape, dtype=np.dtype(field.dtype),
                                  buffer=self._shm.buf, offset=field.offset)
        raise AnalysisError(f"arena has no field named {name!r}")

    @property
    def shared(self) -> bool:
        return True

    def dispose(self) -> None:
        try:
            self._shm.close()
        except OSError:                                # pragma: no cover
            pass
        try:
            self._shm.unlink()
        except (OSError, FileNotFoundError):           # pragma: no cover
            pass


class InlineArena:
    """By-value stand-in when shared memory cannot be used.

    The "handle" is the arena itself: it pickles with the task, every worker
    gets a private copy, and writes to the ``out`` views are *not* visible
    to the parent — callers must check :attr:`shared` and route outputs
    through the task result instead.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        self._arrays = arrays
        self.handle = self

    @classmethod
    def create(cls, arrays: dict[str, np.ndarray]) -> "InlineArena":
        return cls({name: np.ascontiguousarray(array)
                    for name, array in arrays.items()})

    def view(self, name: str) -> np.ndarray:
        try:
            return self._arrays[name]
        except KeyError:
            raise AnalysisError(f"arena has no field named {name!r}") from None

    @property
    def shared(self) -> bool:
        return False

    def dispose(self) -> None:
        self._arrays = {}


#: worker-side cache: segment name -> (SharedMemory, {field -> view})
_ATTACHED: "OrderedDict[str, tuple[Any, dict[str, np.ndarray]]]" \
    = OrderedDict()


def attach_arena(handle: "ArenaHandle | InlineArena") -> dict[str, np.ndarray]:
    """Worker-side zero-copy views of every field of ``handle``.

    Mappings are cached per segment name (LRU of ``_ATTACH_CAP``), so the
    many corners of one variant attach once.  Pool workers are children
    of the creating parent and share its ``resource_tracker`` process, so
    the attach-side re-registration (a Python < 3.13 quirk) is a no-op on
    the tracker's set and needs no unregister workaround — one must *not*
    unregister here, or the parent's own registration vanishes and its
    later ``unlink`` trips a KeyError inside the tracker.
    """
    if isinstance(handle, InlineArena):
        return {field: handle.view(field) for field in handle._arrays}
    cached = _ATTACHED.get(handle.name)
    if cached is not None:
        _ATTACHED.move_to_end(handle.name)
        return cached[1]
    shm = _shared_memory.SharedMemory(name=handle.name)
    views = {field.name: np.ndarray(field.shape,
                                    dtype=np.dtype(field.dtype),
                                    buffer=shm.buf, offset=field.offset)
             for field in handle.fields}
    _ATTACHED[handle.name] = (shm, views)
    while len(_ATTACHED) > _ATTACH_CAP:
        _, (old_shm, _views) = _ATTACHED.popitem(last=False)
        try:
            old_shm.close()
        except (OSError, BufferError):                 # pragma: no cover
            pass
    return views


# -- shipped objects ----------------------------------------------------------


@dataclass(frozen=True)
class ObjectRef:
    """Tiny picklable reference to an object shipped through an arena."""

    handle: ArenaHandle


@dataclass(frozen=True)
class InlineObjectRef:
    """By-value fallback: the pickled object rides in the reference."""

    payload: bytes


def ship_object(obj: Any) -> "tuple[ObjectRef | InlineObjectRef, SharedArena | None]":
    """Pickle ``obj`` once into shared memory; returns (ref, owning arena).

    The arena is ``None`` for the inline fallback (nothing to dispose).
    """
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    arena = SharedArena.create(
        {"payload": np.frombuffer(payload, dtype=np.uint8)})
    if isinstance(arena, InlineArena):
        return InlineObjectRef(payload=payload), None
    return ObjectRef(handle=arena.handle), arena


#: worker-side cache: segment name -> unpickled object
_OBJECTS: "OrderedDict[str, Any]" = OrderedDict()


def load_object(ref: "ObjectRef | InlineObjectRef") -> Any:
    """Resolve a shipped-object reference (cached per segment in workers).

    The cache is what turns "N corners of one variant" into one unpickle:
    every corner task carries the same :class:`ObjectRef`, and only the
    first to arrive in a given worker pays the deserialization.
    """
    if isinstance(ref, InlineObjectRef):
        return pickle.loads(ref.payload)
    cached = _OBJECTS.get(ref.handle.name, _OBJECTS)
    if cached is not _OBJECTS:
        _OBJECTS.move_to_end(ref.handle.name)
        return cached
    views = attach_arena(ref.handle)
    obj = pickle.loads(views["payload"].tobytes())
    _OBJECTS[ref.handle.name] = obj
    while len(_OBJECTS) > _OBJECT_CAP:
        _OBJECTS.popitem(last=False)
    return obj


class ObjectShipper:
    """Ship each distinct object once; hand out (and reuse) its reference.

    The runner keys this by extraction-cache key, so all corners of one
    layout variant share a single shared-memory copy of the extracted flow.
    ``close()`` disposes every arena this shipper created — call it after
    the campaign's last task settled (worker mappings stay valid until the
    workers drop them; the parent's ``unlink`` only removes the name).
    """

    def __init__(self) -> None:
        self._refs: dict[Any, ObjectRef | InlineObjectRef] = {}
        self._arenas: list[SharedArena] = []

    def ref_for(self, key: Any, obj: Any) -> "ObjectRef | InlineObjectRef":
        ref = self._refs.get(key)
        if ref is None:
            ref, arena = ship_object(obj)
            self._refs[key] = ref
            if arena is not None:
                self._arenas.append(arena)
        return ref

    def close(self) -> None:
        arenas, self._arenas, self._refs = self._arenas, [], {}
        for arena in arenas:
            arena.dispose()
