"""Content-addressed cache of extraction results.

Extraction (substrate mesh + Kron reduction, interconnect, devices, merge) is
the expensive, *layout-determined* half of a spur analysis: every simulation
point that shares a layout cell, mesh spec and technology can share one
:class:`~repro.core.flow.FlowResult`.  The cache keys entries by a stable
content hash of exactly that triple (plus the optional package model), so

* layout-invariant sweeps (noise frequency x V_tune x amplitude) extract once,
* layout sweeps extract every changed variant once, but run the Kron
  reduction only once per distinct (device geometry, mesh, technology,
  solver): the runner hands a variant that changes only interconnect the
  substrate extraction of an earlier variant
  (:func:`~repro.substrate.extraction.substrate_inputs`),
* re-running a campaign against a warm cache performs zero extractions.

Keys are *content* addressed: two structurally identical cells built by two
different calls of the same generator hash to the same key, so seeding the
cache with an existing flow makes later sweeps over the same layout free.
Hit / miss counters let tests and benchmarks assert the caching behaviour the
same way :data:`repro.simulator.solver.stats` does for factorizations.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from dataclasses import dataclass

import numpy as np

from ..core.flow import FlowOptions, FlowResult, run_extraction_flow
from ..errors import AnalysisError
from ..layout.cell import Cell
from ..obs import trace_span
from ..package.model import PackageModel
from ..technology.process import ProcessTechnology


def _scalar(obj, out: list[bytes]) -> None:
    out.append(f"{type(obj).__name__}:{obj!r};".encode())


def _float(obj, out: list[bytes]) -> None:
    out.append(f"f:{obj!r};".encode())


def _complex(obj, out: list[bytes]) -> None:
    out.append(f"c:{obj.real!r},{obj.imag!r};".encode())


def _bytes(obj, out: list[bytes]) -> None:
    out.append(b"b:" + obj + b";")


def _enum(obj, out: list[bytes]) -> None:
    out.append(f"e:{type(obj).__qualname__}.{obj.name};".encode())


def _ndarray(obj, out: list[bytes]) -> None:
    out.append(f"nd:{obj.dtype.str}:{obj.shape};".encode())
    out.append(np.ascontiguousarray(obj).tobytes())


def _numpy_scalar(obj, out: list[bytes]) -> None:
    _canonical(obj.item(), out)


def _dict(obj, out: list[bytes]) -> None:
    out.append(b"{")
    for key in sorted(obj, key=repr):
        _canonical(key, out)
        out.append(b"=>")
        _canonical(obj[key], out)
    out.append(b"};")


def _sequence(obj, out: list[bytes]) -> None:
    out.append(b"[" if isinstance(obj, list) else b"(")
    for item in obj:
        _canonical(item, out)
    out.append(b"];" if isinstance(obj, list) else b");")


def _set(obj, out: list[bytes]) -> None:
    out.append(b"s{")
    for item in sorted(obj, key=repr):
        _canonical(item, out)
    out.append(b"};")


def _unsupported(obj, out: list[bytes]) -> None:
    raise AnalysisError(
        f"cannot fingerprint object of type {type(obj).__qualname__} "
        "(add explicit support to repro.studies.cache)")


#: Leaf types a dataclass encoder writes inline, with its field label.
_INLINE_SCALARS = frozenset({str, int, bool, type(None)})


def _dataclass_encoder(cls: type):
    """The encoder of a dataclass: its qualified class name, then every
    field as ``name=`` and the field's value.  Plain floats, strings,
    ints, bools and ``None`` are written inline, so a record of them is one
    chunk."""
    head = f"dc:{cls.__qualname__}("
    fields = tuple((f"{field.name}=", field.name)
                   for field in dataclasses.fields(cls))

    def encode(obj, out: list[bytes]) -> None:
        text = head
        for label, name in fields:
            value = getattr(obj, name)
            kind = type(value)
            if kind is float:
                text += f"{label}f:{value!r};"
            elif kind in _INLINE_SCALARS:
                text += f"{label}{kind.__name__}:{value!r};"
            else:
                out.append((text + label).encode())
                _canonical(value, out)
                text = ""
        out.append((text + ");").encode())
    return encode


def _encoder(cls: type):
    """The encoder of instances of ``cls``: the first of these kinds that
    ``cls`` is (so ``bool``, ``int`` and ``str`` subclasses such as an
    ``IntEnum`` encode as their base type, and ``np.float64`` as a float)."""
    if cls is type(None) or issubclass(cls, (bool, int, str)):
        return _scalar
    if issubclass(cls, float):
        return _float
    if issubclass(cls, complex):
        return _complex
    if issubclass(cls, bytes):
        return _bytes
    if issubclass(cls, enum.Enum):
        return _enum
    if issubclass(cls, np.ndarray):
        return _ndarray
    if issubclass(cls, np.generic):
        return _numpy_scalar
    if dataclasses.is_dataclass(cls):
        return _dataclass_encoder(cls)
    if issubclass(cls, dict):
        return _dict
    if issubclass(cls, (list, tuple)):
        return _sequence
    if issubclass(cls, (set, frozenset)):
        return _set
    return _unsupported


#: type -> encoder, filled on the first instance of each type.  An
#: encoder depends on the type alone, so dispatching on the exact type
#: emits the bytes an isinstance chain would, without walking it per object.
_ENCODERS: dict[type, object] = {}


def _canonical(obj, out: list[bytes]) -> None:
    """Append a canonical byte representation of ``obj`` to ``out``.

    Deterministic across processes and interpreter runs (no ``id()``-based
    ``repr``, no hash randomization): floats use ``repr`` (shortest
    round-trip), containers are delimited and dicts sorted by key, dataclasses
    contribute their qualified class name plus every field.
    """
    cls = type(obj)
    encoder = _ENCODERS.get(cls)
    if encoder is None:
        encoder = _ENCODERS[cls] = _encoder(cls)
    encoder(obj, out)


def fingerprint(*objects) -> str:
    """Stable SHA-256 content hash of the given objects."""
    chunks: list[bytes] = []
    for obj in objects:
        _canonical(obj, chunks)
    return hashlib.sha256(b"".join(chunks)).hexdigest()


def extraction_key(cell: Cell, technology: ProcessTechnology,
                   options: FlowOptions | None = None,
                   package: PackageModel | None = None) -> str:
    """Cache key of one extraction: hash of (layout, technology, mesh spec)."""
    return fingerprint(cell, technology, options or FlowOptions(), package)


@dataclass
class CacheStats:
    """Counters of the cache traffic (mirrors the solver's ``stats``)."""

    hits: int = 0
    misses: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


class ExtractionCache:
    """In-memory content-addressed store of :class:`FlowResult` objects.

    Campaigns key each variant (``key``), look it up (``lookup``, one
    counted hit or miss) and ``store`` the flows they extract themselves;
    ``get_or_extract`` does all three for a single request with
    :func:`~repro.core.flow.run_extraction_flow`.  ``seed`` installs an
    already-extracted flow under its content key, which makes engine runs
    over a layout that was extracted elsewhere (e.g. by
    :class:`~repro.core.vco_experiment.VcoImpactAnalysis`) start warm.
    """

    def __init__(self):
        self._entries: dict[str, FlowResult] = {}
        self.stats = CacheStats()

    # -- counters ------------------------------------------------------------

    @property
    def hits(self) -> int:
        return self.stats.hits

    @property
    def misses(self) -> int:
        return self.stats.misses

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._entries.clear()
        self.stats.reset()

    # -- access --------------------------------------------------------------

    def key(self, cell: Cell, technology: ProcessTechnology,
            options: FlowOptions | None = None,
            package: PackageModel | None = None) -> str:
        return extraction_key(cell, technology, options, package)

    def lookup(self, key: str) -> FlowResult | None:
        """Counted lookup: returns the cached flow or ``None`` on a miss.

        Every lookup increments exactly one counter, so after any sequence of
        requests ``misses`` equals the number of extractions that had to run.
        """
        with trace_span("cache.lookup"):
            flow = self._entries.get(key)
        if flow is not None:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        return flow

    def store(self, key: str, flow: FlowResult) -> None:
        """Install an extracted flow under ``key`` (no counter traffic)."""
        with trace_span("cache.store"):
            self._entries[key] = flow

    def get_or_extract(self, cell: Cell, technology: ProcessTechnology,
                       options: FlowOptions | None = None,
                       package: PackageModel | None = None) -> FlowResult:
        """Return the cached flow for this request, extracting on a miss."""
        key = self.key(cell, technology, options, package)
        flow = self.lookup(key)
        if flow is None:
            flow = run_extraction_flow(cell, technology, package=package,
                                       options=options)
            self.store(key, flow)
        return flow

    def seed(self, flow: FlowResult, options: FlowOptions | None = None,
             package: PackageModel | None = None) -> str:
        """Install an existing flow under its content key (no counter traffic).

        ``options`` must be the flow options the extraction was run with —
        they are part of the key, and the :class:`FlowResult` does not record
        them itself.  Returns the key.
        """
        key = self.key(flow.cell, flow.technology, options, package)
        self.store(key, flow)
        return key
