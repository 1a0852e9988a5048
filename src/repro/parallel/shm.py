"""Ship-once objects: one pickled object per shared-memory segment.

Every corner task of a campaign variant needs the variant's extracted
:class:`~repro.core.flow.FlowResult`.  Re-pickling it into each task through
the ``ProcessPoolExecutor`` pipe costs more than shipping it once, so
:func:`ship_object` pickles the object into one
``multiprocessing.shared_memory`` segment and every task carries only a tiny
:class:`ObjectRef` (segment name + payload length).  :func:`load_object`
attaches, unpickles, closes the mapping at once and caches the object: the
corners of one variant cost one unpickle per worker and all get the same
object, which is what lets each worker compile the variant's testbench once.

Creation falls back to a by-value :class:`InlineObjectRef` whenever shared
memory is unavailable or the segment cannot be allocated (e.g. a full
``/dev/shm``); those refs are cached too, keyed by a digest of the payload.
Lifecycle: the parent that created a segment owns ``unlink``
(:meth:`ObjectShipper.close`); pool workers share the parent's
``resource_tracker`` process (see :mod:`~repro.parallel.pool`), so their
attachments need no bookkeeping of their own.
"""

from __future__ import annotations

import hashlib
import pickle
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from ..obs import get_logger

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:                                    # pragma: no cover
    _shared_memory = None

logger = get_logger(__name__)

_OBJECT_CAP = 8      #: worker-side LRU: unpickled shipped objects


@dataclass(frozen=True)
class ObjectRef:
    """Tiny picklable reference to an object shipped into shared memory."""

    name: str        #: shared-memory segment name
    size: int        #: payload length (the segment may be rounded up)

    @property
    def handle(self) -> "ObjectRef":
        """The segment address (``ref.handle.name``): the ref itself."""
        return self


@dataclass(frozen=True)
class InlineObjectRef:
    """By-value fallback: the pickled object rides in the reference."""

    payload: bytes


def ship_object(obj: Any) -> "tuple[ObjectRef | InlineObjectRef, Any]":
    """Pickle ``obj`` once into shared memory; returns (ref, owning segment).

    The segment is ``None`` for the inline fallback (nothing to unlink);
    otherwise the caller closes and unlinks it after the last consumer.
    """
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if _shared_memory is None:
        return InlineObjectRef(payload=payload), None
    try:
        segment = _shared_memory.SharedMemory(create=True,
                                              size=max(len(payload), 1))
    except (OSError, ValueError) as exc:
        logger.warning("shared memory unavailable (%s); falling back to "
                       "inline payloads", exc)
        return InlineObjectRef(payload=payload), None
    segment.buf[:len(payload)] = payload
    return ObjectRef(name=segment.name, size=len(payload)), segment


#: worker-side cache: segment name or payload digest -> unpickled object
_OBJECTS: "OrderedDict[str, Any]" = OrderedDict()


def _read_segment(ref: ObjectRef) -> bytes:
    """Copy a shipped payload out of its segment and drop the mapping.

    Pool workers are children of the creating parent and share its
    ``resource_tracker`` process, so the attach-side re-registration (a
    Python < 3.13 quirk) is a no-op on the tracker's set and needs no
    unregister workaround — one must *not* unregister here, or the parent's
    own registration vanishes and its later ``unlink`` trips a KeyError
    inside the tracker.
    """
    segment = _shared_memory.SharedMemory(name=ref.name)
    try:
        with segment.buf[:ref.size] as view:
            return bytes(view)
    finally:
        segment.close()


def load_object(ref: "ObjectRef | InlineObjectRef") -> Any:
    """Resolve a shipped-object reference (cached, LRU of ``_OBJECT_CAP``).

    The cache is what turns "N corners of one variant" into one unpickle:
    every corner task carries the same reference, and only the first to
    arrive in a given process pays the deserialization.  Inline refs are
    keyed by a digest of their payload, never by ``id()``, which a
    persistent worker would see reused across tasks.
    """
    if isinstance(ref, InlineObjectRef):
        key = "inline:" + hashlib.blake2b(ref.payload,
                                          digest_size=16).hexdigest()
    else:
        key = ref.name
    cached = _OBJECTS.get(key, _OBJECTS)
    if cached is not _OBJECTS:
        _OBJECTS.move_to_end(key)
        return cached
    payload = ref.payload if isinstance(ref, InlineObjectRef) \
        else _read_segment(ref)
    obj = _OBJECTS[key] = pickle.loads(payload)
    while len(_OBJECTS) > _OBJECT_CAP:
        _OBJECTS.popitem(last=False)
    return obj


class ObjectShipper:
    """Ship each distinct object once; hand out (and reuse) its reference.

    The runner keys this by extraction-cache key, so all corners of one
    layout variant share a single shared-memory copy of the extracted flow.
    ``close()`` unlinks every segment this shipper created — call it after
    the campaign's last task settled.
    """

    def __init__(self) -> None:
        self._refs: dict[Any, ObjectRef | InlineObjectRef] = {}
        self._segments: list = []

    def ref_for(self, key: Any, obj: Any) -> "ObjectRef | InlineObjectRef":
        ref = self._refs.get(key)
        if ref is None:
            ref, segment = ship_object(obj)
            self._refs[key] = ref
            if segment is not None:
                self._segments.append(segment)
        return ref

    def close(self) -> None:
        segments, self._segments, self._refs = self._segments, [], {}
        for segment in segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:                  # pragma: no cover
                pass
