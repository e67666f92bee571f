"""Zero-copy shared-memory shard transport — the sharded engine's IPC plane.

The worker-scaling benchmark showed sharded execution is IPC-bound on
small hosts: every window's root Theta round-trips through
``encode_weighted_batches`` → ``Pipe.send`` → ``decode_weighted_batches``,
serializing the very column buffers the columnar batches were built to
avoid copying — the pipe carries the payload *and* the kernel copies it
twice. This module removes the payload from the pipe: each shard owns
one ``multiprocessing.shared_memory`` segment into which it writes its
codec frames directly (whole column buffers, one ``memcpy``-class write
per column), and only a tiny ``(sequence, offset, length)`` descriptor
crosses the Pipe. The parent decodes straight off the segment — numpy
``frombuffer`` views over the shared pages, ``array('d')`` fallback —
so payload bytes never transit a pipe and are copied exactly once
(decode's copy-out into owned columns, which is what makes ring reuse
safe). This is the SimBricks-style design: fixed-size shared-memory
message queues, descriptors on the control channel, payloads in place.

A :class:`ShardSegment` is split into two regions:

* a **payload ring** the *shard* writes (its per-window Theta frames),
* a small **control region** the *parent* writes (the adaptive
  controller's broadcast :class:`~repro.system.adaptive.WindowObservation`
  rides here instead of being pickled through the pipe).

Synchronization needs no locks because the sharded protocol is strictly
round-based: the parent stashes control frames *before* sending a
``run`` request, the shard writes payload frames *while* serving it,
and the parent reads them *after* collecting the round's results — the
two sides never touch the segment concurrently. Each round carries a
sequence number; both sides reset their write cursors at round start
and every descriptor embeds the sequence, so a desynchronized clock is
detected loudly instead of decoding stale bytes.

A frame that does not fit the fixed-size ring falls back to the classic
pipe codec for that slot (the descriptor is simply the encoded bytes),
so the ring size bounds the fast path, never correctness. Hosts
without usable shared memory, and the ``spawn`` start method, degrade
to the pipe codec entirely with bit-identical results — see
:func:`resolve_shard_transport`.
"""

from __future__ import annotations

import pickle
import weakref

from repro.errors import PipelineError

try:  # pragma: no cover - trivially environment-dependent
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "CTRL_BYTES",
    "DEFAULT_RING_BYTES",
    "ShardSegment",
    "is_ctrl_frame",
    "resolve_shard_transport",
    "shm_available",
]

#: Default payload-ring capacity per shard. One round must hold every
#: requested window's Theta frames for one shard; at the benchmark's
#: Fig. 6 operating point a window frame is tens of kilobytes, so 4 MiB
#: covers hundreds of windows per round. Oversized rounds fall back to
#: the pipe codec per slot — the segment is virtual memory, and only
#: touched pages ever materialize.
DEFAULT_RING_BYTES = 4 * 1024 * 1024

#: Control-region capacity (parent → shard broadcasts). A pickled
#: :class:`~repro.system.adaptive.WindowObservation` is a few hundred
#: bytes per sub-stream; oversized values fall back to riding the pipe.
CTRL_BYTES = 64 * 1024

#: Tag distinguishing a stashed control frame from an inline value in a
#: request's observation list (observations are dataclasses, never
#: tuples, so the tagged tuple is unambiguous).
_CTRL_TAG = "ctrl"

_probed: bool | None = None


def shm_available() -> bool:
    """Whether this host can create and map POSIX shared memory.

    Probes once per process by actually creating (and immediately
    unlinking) a tiny segment, so an importable module with an
    unusable ``/dev/shm`` still reports ``False``.
    """
    global _probed
    if _probed is None:
        if _shared_memory is None:
            _probed = False
        else:
            try:
                probe = _shared_memory.SharedMemory(create=True, size=16)
            except (OSError, ValueError):
                _probed = False
            else:
                probe.close()
                try:
                    probe.unlink()
                except FileNotFoundError:  # pragma: no cover - defensive
                    pass
                _probed = True
    return _probed


def resolve_shard_transport(start_method: str) -> str:
    """The concrete shard transport a run will use.

    The code picks, not the user: shared memory only when the host can
    map segments *and* shards fork (a forked shard inherits the
    parent's resource tracker, so create/attach/unlink accounting
    stays balanced); ``spawn`` hosts and shm-unavailable hosts use the
    pipe codec — results are bit-identical either way, only the IPC
    cost differs.
    """
    if start_method != "fork" or not shm_available():
        return "pipe"
    return "shm"


def _release_owned(shm) -> None:
    """Finalizer for the creating side: detach and unlink the segment."""
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


def _release_attached(shm) -> None:
    """Finalizer for the attaching side: detach only (owner unlinks)."""
    shm.close()


class ShardSegment:
    """One shard's shared-memory IPC plane: control region + payload ring.

    Layout: ``[ctrl_bytes of parent-written control frames |
    ring_bytes of shard-written payload frames]``. The parent side
    :meth:`create`\\ s the segment (and is the side that unlinks it);
    the shard process :meth:`attach`\\ es by name. Both sides call
    :meth:`begin_round` with the round's sequence number, after which
    the writer for each region appends frames and hands out
    descriptors that the other side resolves against the same
    sequence.

    Every instance registers a :mod:`weakref` finalizer, so a segment
    abandoned without :meth:`release` (a crashed parent path, a
    garbage-collected runner) is still detached — and, on the owning
    side, unlinked — instead of leaking into ``/dev/shm``.
    """

    def __init__(self, shm, ring_bytes: int, ctrl_bytes: int, owner: bool) -> None:
        self._shm = shm
        self._ring_bytes = ring_bytes
        self._ctrl_bytes = ctrl_bytes
        self._owner = owner
        self._sequence = 0
        self._ring_cursor = 0
        self._ctrl_cursor = 0
        self._finalizer = weakref.finalize(
            self, _release_owned if owner else _release_attached, shm
        )

    # ------------------------------------------------------------------
    # Construction / lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        ring_bytes: int = DEFAULT_RING_BYTES,
        ctrl_bytes: int = CTRL_BYTES,
    ) -> "ShardSegment":
        """Create a fresh segment (parent side; this side unlinks it)."""
        if _shared_memory is None:  # pragma: no cover - import-gated
            raise PipelineError("shared memory is unavailable on this host")
        if ring_bytes <= 0 or ctrl_bytes <= 0:
            raise PipelineError(
                f"segment regions must be positive, got ring={ring_bytes} "
                f"ctrl={ctrl_bytes}"
            )
        shm = _shared_memory.SharedMemory(
            create=True, size=ring_bytes + ctrl_bytes
        )
        return cls(shm, ring_bytes, ctrl_bytes, owner=True)

    @classmethod
    def attach(cls, name: str, ring_bytes: int, ctrl_bytes: int) -> "ShardSegment":
        """Map an existing segment by name (shard side; never unlinks)."""
        if _shared_memory is None:  # pragma: no cover - import-gated
            raise PipelineError("shared memory is unavailable on this host")
        shm = _shared_memory.SharedMemory(name=name)
        return cls(shm, ring_bytes, ctrl_bytes, owner=False)

    @property
    def name(self) -> str:
        """The segment's system-wide name (attach key)."""
        return self._shm.name

    @property
    def spec(self) -> tuple[str, int, int]:
        """The ``(name, ring_bytes, ctrl_bytes)`` triple a shard attaches with."""
        return (self._shm.name, self._ring_bytes, self._ctrl_bytes)

    @property
    def ring_bytes(self) -> int:
        """Payload-ring capacity in bytes."""
        return self._ring_bytes

    def release(self) -> None:
        """Detach the mapping; the owning side also unlinks (idempotent)."""
        self._finalizer()

    # ------------------------------------------------------------------
    # Round protocol
    # ------------------------------------------------------------------
    def begin_round(self, sequence: int) -> None:
        """Reset both write cursors for one request/collect round.

        The parent calls this before stashing control frames for a
        request; the shard calls it with the sequence carried by that
        request before writing payload frames. Frames from a previous
        round become unreadable (their descriptors carry the old
        sequence), which is exactly the reuse guarantee: by the time a
        new round starts, the parent has decoded — and copied out of —
        everything the previous round wrote.
        """
        self._sequence = sequence
        self._ring_cursor = 0
        self._ctrl_cursor = 0

    def write_frame(
        self, chunks: list[bytes | memoryview], total: int
    ) -> tuple[int, int, int] | None:
        """Append one payload frame to the ring (shard side).

        ``chunks`` are the codec's bytes-like chunks (framing bytes and
        views of the column buffers), copied into the ring in order —
        the payload's only copy on this side. Returns the ``(sequence,
        offset, length)`` descriptor to send over the pipe, or ``None``
        when the ring cannot hold the frame — the caller falls back to
        the pipe codec for that slot.
        """
        if total > self._ring_bytes - self._ring_cursor:
            return None
        start = self._ctrl_bytes + self._ring_cursor
        buf = self._shm.buf
        position = start
        for chunk in chunks:
            length = len(chunk)
            buf[position : position + length] = chunk
            position += length
        descriptor = (self._sequence, self._ring_cursor, total)
        self._ring_cursor += total
        return descriptor

    def read_frame(self, descriptor: tuple[int, int, int]) -> memoryview:
        """A zero-copy view of one payload frame (parent side).

        Callers must release the view (or let it fall out of scope)
        before the segment is released — the codec's decode copies the
        columns out, so nothing outlives the view.

        A malformed descriptor — wrong arity, non-integer fields, a
        stale round sequence, or out-of-ring bounds — always raises
        :class:`PipelineError`, never an unclassified ``TypeError``:
        the shard supervisor keys its corrupted-descriptor recovery
        (replace the shard, degrade it to the pipe codec) on that
        diagnosis.
        """
        try:
            sequence, offset, length = descriptor
        except (TypeError, ValueError):
            raise PipelineError(
                f"malformed shared-memory descriptor {descriptor!r}"
            ) from None
        if not all(isinstance(f, int) for f in (sequence, offset, length)):
            raise PipelineError(
                f"malformed shared-memory descriptor {descriptor!r}"
            )
        if sequence != self._sequence:
            raise PipelineError(
                f"shared-memory frame from round {sequence} read in round "
                f"{self._sequence}; shard clocks are desynchronized — "
                f"create a fresh runner"
            )
        if offset < 0 or length < 0 or offset + length > self._ring_bytes:
            raise PipelineError(
                f"shared-memory descriptor (offset={offset}, "
                f"length={length}) exceeds the {self._ring_bytes}-byte ring"
            )
        start = self._ctrl_bytes + offset
        return self._shm.buf[start : start + length]

    def stash(self, value) -> tuple[str, int, int, int] | None:
        """Pickle a control value into the control region (parent side).

        The adaptive controller's broadcast observation rides here: the
        returned ``("ctrl", sequence, offset, length)`` frame replaces
        the value in the request message. Returns ``None`` when the
        region cannot hold it — the caller sends the value inline.
        """
        data = pickle.dumps(value)
        if len(data) > self._ctrl_bytes - self._ctrl_cursor:
            return None
        start = self._ctrl_cursor
        self._shm.buf[start : start + len(data)] = data
        self._ctrl_cursor += len(data)
        return (_CTRL_TAG, self._sequence, start, len(data))

    def unstash(self, frame: tuple[str, int, int, int]):
        """Load a control value stashed by the parent (shard side).

        Like :meth:`read_frame`, malformed frames raise
        :class:`PipelineError` rather than ``TypeError`` so the
        failure crosses the pipe as a diagnosable shard error.
        """
        try:
            tag, sequence, offset, length = frame
        except (TypeError, ValueError):
            raise PipelineError(
                f"malformed control frame {frame!r}"
            ) from None
        if not all(isinstance(f, int) for f in (sequence, offset, length)):
            raise PipelineError(f"malformed control frame {frame!r}")
        if tag != _CTRL_TAG or sequence != self._sequence:
            raise PipelineError(
                f"control frame {frame!r} does not belong to round "
                f"{self._sequence}; shard clocks are desynchronized"
            )
        if offset < 0 or length < 0 or offset + length > self._ctrl_bytes:
            raise PipelineError(
                f"control frame (offset={offset}, length={length}) exceeds "
                f"the {self._ctrl_bytes}-byte control region"
            )
        return pickle.loads(self._shm.buf[offset : offset + length])


def is_ctrl_frame(entry) -> bool:
    """Whether a request observation entry is a stashed control frame."""
    return isinstance(entry, tuple) and len(entry) == 4 and entry[0] == _CTRL_TAG
