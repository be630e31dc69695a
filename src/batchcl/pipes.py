"""Frames, and the forked children whose pipes carry them.

A frame (everything little-endian) is a 4-byte tag, a u64 payload length,
then the payload; a process pipe carries nothing but frames. Every child
process, an expert worker or a teacher process, is forked by
:class:`Forked`, which gives it a pipe of its own and reaps it on every way
out. The pipe carries an expert worker's ARTF frames, a teacher process's
TGTS frames, or an EXCP frame holding a child's pickled exception.
"""

from __future__ import annotations

import fcntl
import os
import pickle
import signal
import struct

TAG_EXCEPTION = b"EXCP"  # a child's pickled exception
FRAME_OVERHEAD = 12  # 4-byte tag + u64 payload length


class ProtocolViolation(RuntimeError):
    """A constraint of the communication contract was broken."""


class ExpertFailure(RuntimeError):
    """An expert diverged or crashed, or a child process ended before it
    sent all its frames; the step must be rolled back."""


def frame(tag: bytes, *parts) -> bytes:
    """tag (4 bytes) | payload length (u64) | payload, the payload being
    ``parts`` (bytes or byte views) joined: the frame is the one copy made."""
    if len(tag) != 4:
        raise ValueError("tag must be 4 bytes")
    return b"".join((tag, struct.pack("<Q", sum(map(len, parts))), *parts))


def _take(blob: bytes, off: int, n: int, what: str) -> tuple[memoryview, int]:
    """A view of the ``n`` bytes at ``off`` (no copy) plus the offset after
    them; a short blob raises ProtocolViolation naming ``what`` and the byte
    offset."""
    if off + n > len(blob):
        raise ProtocolViolation(
            f"{what} truncated at byte {off}: needs {n} bytes, {len(blob) - off} present"
        )
    return memoryview(blob)[off : off + n], off + n


def _unpack(fmt: str, blob: bytes, off: int, what: str) -> tuple[tuple, int]:
    """``struct.unpack`` of :func:`_take`'s bytes, plus the offset after them."""
    raw, end = _take(blob, off, struct.calcsize(fmt), what)
    return struct.unpack(fmt, raw), end


def _check_end(blob: bytes, off: int, what: str) -> None:
    if off != len(blob):
        raise ProtocolViolation(f"{what}: {len(blob) - off} trailing bytes at byte {off}")


def unframe(blob: bytes) -> tuple[bytes, memoryview]:
    """(tag, payload) of exactly one frame; the payload is a view of ``blob``."""
    if len(blob) < FRAME_OVERHEAD:
        raise ProtocolViolation(
            f"frame truncated: {len(blob)} bytes, header needs {FRAME_OVERHEAD}"
        )
    (length,) = struct.unpack_from("<Q", blob, 4)
    payload, end = _take(blob, FRAME_OVERHEAD, length, "frame payload")
    _check_end(blob, end, "frame")
    return bytes(blob[:4]), payload


def _unframe_as(tag: bytes, msg: bytes) -> memoryview:
    """The payload of ``msg``, which must be a ``tag`` frame."""
    got, payload = unframe(msg)
    if got != tag:
        raise ProtocolViolation(f"expected a {tag!r} frame, got {got!r} at byte 0")
    return payload


# what each child's pipe holds if the system allows it (Linux's default
# unprivileged maximum): 12 of wide's 80 KiB teacher frames, where the
# default 64 KiB holds none whole
_PIPE_BYTES = 1 << 20
# the request for it, where the system has one (Linux)
_SETPIPE_SZ = getattr(fcntl, "F_SETPIPE_SZ", None)


def _serve(out_fd: int, read_ends: list, job) -> None:
    """A forked child's whole life; never returns.

    Closes the pipe ends it inherited for reading, so that its writes fail
    rather than block once the parent is gone. Writes each frame that
    ``job()`` yields to the pipe ``out_fd`` as it comes, and exits 0. If the
    job raises, it writes an EXCP frame holding the pickled exception
    instead, or an ExpertFailure naming its type and message where it does
    not survive a pickle round trip, and exits 1. It leaves through
    ``os._exit``, so nothing unwinds into the parent's stack.
    """
    code = 1
    try:
        for pipe in read_ends:
            pipe.close()
        with open(out_fd, "wb") as out:  # a file object finishes interrupted writes
            try:
                for msg in job():
                    out.write(msg)
                    out.flush()
            except BaseException as e:
                try:  # the parent unpickles it: send only what survives that
                    pickle.loads(blob := pickle.dumps(e))
                except Exception:
                    blob = pickle.dumps(ExpertFailure(f"{type(e).__name__}: {e}"))
                out.write(frame(TAG_EXCEPTION, blob))
            else:
                code = 0
    finally:
        os._exit(code)


def _frames(fd: int):
    """Every whole frame the pipe ``fd`` carries, in order, each its
    own bytes, until the pipe ends (a partial last frame is dropped).

    Each read fills one buffer of ``_PIPE_BYTES`` with whatever the pipe
    holds, and the frames are cut out of it. A frame's head that a read
    left incomplete moves to the buffer's front before the next read, and
    the buffer grows to hold a frame larger than itself.
    """
    buf, start, end = bytearray(_PIPE_BYTES), 0, 0  # buf[start:end] is unread
    while True:
        size = FRAME_OVERHEAD
        if end - start >= size:
            size += struct.unpack_from("<Q", buf, start + 4)[0]
            if end - start >= size:
                yield bytes(memoryview(buf)[start : start + size])
                start += size
                continue
        if start:
            buf[: end - start] = buf[start:end]
            start, end = 0, end - start
        if size > len(buf):
            buf += bytes(size - len(buf))
        got = os.readv(fd, [memoryview(buf)[end:]])
        if not got:
            return
        end += got


class Forked:
    """Child processes forked from this one, one per job, each writing the
    frames its job yields (:func:`_serve`) to a pipe of its own.

    A child inherits everything its job reads at the fork, so nothing is
    sent to it. Each pipe is asked to hold ``_PIPE_BYTES`` (where the
    system refuses, it keeps its default size), so that a child streaming
    frames runs that far ahead of its reader and the two processes swap
    the CPU less often when they share one. :meth:`records` reads a
    child's frames in bulk (:func:`_frames`): each read takes all the pipe
    holds, up to ``_PIPE_BYTES``, so a child blocked on a full pipe is
    woken once per read, not once per frame. Leaving the ``with`` block
    reaps every child; if the block raised (an exception, a
    KeyboardInterrupt), the children still running are killed first.
    ``codes`` then holds each child's exit code, a negative one being the
    signal that killed it.
    """

    def __init__(self, jobs):
        self.pids: list[int] = []
        self.pipes: list = []
        self.codes: list[int | None] = []
        try:
            for job in jobs:
                r, out_fd = os.pipe()
                self.pipes.append(open(r, "rb", buffering=0))
                if _SETPIPE_SZ is not None:
                    try:
                        fcntl.fcntl(r, _SETPIPE_SZ, _PIPE_BYTES)
                    except OSError:
                        pass
                try:
                    pid = os.fork()
                    if pid == 0:
                        _serve(out_fd, self.pipes, job)
                finally:  # in this process only: a child never returns here
                    os.close(out_fd)
                self.pids.append(pid)
                self.codes.append(None)
        except BaseException as e:
            self.__exit__(type(e), e, e.__traceback__)
            raise

    def __enter__(self) -> Forked:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            for pid, code in zip(self.pids, self.codes):
                if code is None:
                    os.kill(pid, signal.SIGKILL)
        for pipe in self.pipes:
            pipe.close()
        for w in range(len(self.pids)):
            self.exit_code(w)

    def records(self, w: int, n: int, what: str, unit: str):
        """Child ``w``'s first ``n`` frames as they arrive, each its own
        bytes. An EXCP frame's exception is raised here as it is, or, if it
        does not unpickle, an ExpertFailure naming ``what``; a pipe that
        ends before the n-th frame raises ExpertFailure naming ``what``, the
        child's exit code and how many of the ``n`` ``unit`` came."""
        frames = _frames(self.pipes[w].fileno())
        for got in range(n):
            msg = next(frames, None)
            if msg is None:
                # a negative code is the signal that killed the child
                raise ExpertFailure(f"{what} ended with exit code {self.exit_code(w)} "
                                    f"after {got} of {n} {unit}")
            if msg[:4] == TAG_EXCEPTION:
                try:
                    e = pickle.loads(msg[FRAME_OVERHEAD:])
                except Exception as bad:
                    raise ExpertFailure(f"{what} raised an exception that does not unpickle: "
                                        f"{type(bad).__name__}: {bad}") from bad
                raise e
            yield msg

    def exit_code(self, w: int) -> int:
        """Child ``w``'s exit code, reaping it first if need be."""
        if self.codes[w] is None:
            self.codes[w] = os.waitstatus_to_exitcode(os.waitpid(self.pids[w], 0)[1])
        return self.codes[w]
