"""Deterministic CSV emission: 17 significant digits, fixed row order."""

from __future__ import annotations

import collections
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

try:
    from fcntl import F_SETPIPE_SZ, fcntl
except ImportError:  # not Linux
    F_SETPIPE_SZ = None

_WRITER_SCRIPT = Path(__file__).with_name("_snapshot_writer.py")
# The child imports numpy from where this process found it.
_NUMPY_DIR = str(Path(np.__file__).parent.parent)
# 27 band snapshots of 38,424 bytes; the default 64 KiB holds under two.
_PIPE_BYTES = 1 << 20
# Sent by SnapshotWriter.close after the last snapshot: a time no snapshot has.
_END_MARK = struct.pack("=d", -1.0)


def fmt(value) -> str:
    """Lossless text for floats (``nan``, ``inf``, ``-inf`` included)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "%.17g" % value if isinstance(value, float) else str(value)


def _lines(header: str, rows):
    yield header + "\n"
    for row in rows:
        yield ",".join(map(fmt, row)) + "\n"


def _temp_sibling(path: Path) -> Path:
    """The temporary file a write to ``path`` goes to before it is renamed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


def write_text(path, chunks) -> Path:
    """Write the strings ``chunks`` to ``path``, which appears only when complete.

    They go to a sibling temporary file that then replaces ``path``.
    """
    path = Path(path)
    tmp = _temp_sibling(path)
    try:
        with open(tmp, "w", encoding="utf-8") as out:
            out.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_csv(path, header: str, rows):
    """Stream ``header`` and ``rows``, value tuples, to an open text stream or,
    through :func:`write_text`, to ``path``."""
    if hasattr(path, "write"):
        path.writelines(_lines(header, rows))
        return path
    return write_text(path, _lines(header, rows))


def _widen(pipe) -> None:
    """Raise ``pipe``'s buffer to ``_PIPE_BYTES``, or to the system's limit if
    that is lower; elsewhere than Linux, or if refused, leave it as it is."""
    if F_SETPIPE_SZ is None:
        return
    try:
        limit = int(Path("/proc/sys/fs/pipe-max-size").read_text())
        fcntl(pipe, F_SETPIPE_SZ, min(_PIPE_BYTES, limit))
    except (OSError, ValueError):
        pass


class SnapshotWriter:
    """Writes ``header`` and ``t,x,u,v`` lines to ``path`` from a child process.

    The child formats while the caller goes on computing.  The grid ``x``
    is sent once, then each :meth:`write` sends ``t, u, v`` as raw float64
    over a pipe.  Where the OS allows, the pipe is raised to 1 MiB.  The
    pipe does not block: each :meth:`write` queues memoryviews of its
    arrays, not copies, and sends what the pipe takes at once, so the caller
    never waits for the child, not even while it starts and imports numpy;
    :meth:`close` sends the rest.  ``u`` and ``v`` must therefore stay
    unchanged until then, as the stored rows of a ``Trajectory`` do.  The
    child (``_snapshot_writer.py``) turns each snapshot into text with the
    numpy kernel in ``_g17.py`` and writes a sibling temporary file;
    :meth:`close` then sends an end mark, waits for the child and renames
    the file to ``path``.  A child whose input ends without the mark,
    because this process died, removes the file and exits nonzero.  After
    an exception, from this writer or from the caller, call :meth:`abort`:
    it stops the child and removes the file.  A failed child makes
    :meth:`write` or :meth:`close` raise an ``OSError`` with its exit
    status and stderr.  The text equals ``fmt`` of every value.
    """

    def __init__(self, path, header: str, x: np.ndarray):
        self.path = Path(path)
        self.tmp = _temp_sibling(self.path)
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(_WRITER_SCRIPT), str(self.tmp), header, _NUMPY_DIR],
            stdin=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
            env=dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                     MKL_NUM_THREADS="1"))  # it does no linear algebra
        _widen(self._proc.stdin)
        os.set_blocking(self._proc.stdin.fileno(), False)
        self._backlog: collections.deque = collections.deque()
        x = np.ascontiguousarray(x, dtype=np.float64)
        self._send(struct.pack("=q", x.size), x)

    def _send(self, *chunks) -> None:
        """Queue ``chunks`` (bytes or contiguous arrays) and send what the pipe takes."""
        self._backlog.extend(memoryview(chunk).cast("B") for chunk in chunks)
        fd, backlog = self._proc.stdin.fileno(), self._backlog
        try:
            while backlog:
                sent = os.write(fd, backlog[0])
                if sent == len(backlog[0]):
                    backlog.popleft()
                else:
                    backlog[0] = backlog[0][sent:]
        except BlockingIOError:
            pass
        except BrokenPipeError:
            backlog.clear()
            status, err = self._reap()
            raise self._failure(status, err or "it stopped reading") from None

    def write(self, t: float, u: np.ndarray, v: np.ndarray) -> None:
        self._send(struct.pack("=d", t), np.ascontiguousarray(u, dtype=np.float64),
                   np.ascontiguousarray(v, dtype=np.float64))

    def _reap(self) -> tuple[int, str]:
        """Close the pipe and wait for the child: its exit status and stderr."""
        proc = self._proc
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass
        err = proc.stderr.read().decode("utf-8", "replace").strip()
        proc.stderr.close()
        return proc.wait(), err

    def _failure(self, status: int, err: str) -> OSError:
        return OSError(f"{self.path.name} writer exited with status {status}: {err}")

    def close(self) -> Path:
        """Send the rest and the end mark, wait for the child, then move the
        finished file to ``path``."""
        os.set_blocking(self._proc.stdin.fileno(), True)
        self._send(_END_MARK)
        status, err = self._reap()
        if status != 0:
            raise self._failure(status, err)
        os.replace(self.tmp, self.path)
        return self.path

    def abort(self) -> None:
        """Stop and reap the child and remove the temporary file; ``path`` is untouched."""
        proc = self._proc
        self._backlog.clear()
        if proc.returncode is None:
            proc.kill()
        for pipe in (proc.stdin, proc.stderr):
            try:
                pipe.close()
            except BrokenPipeError:
                pass
        proc.wait()
        self.tmp.unlink(missing_ok=True)
