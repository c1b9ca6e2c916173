"""Writer process for ``snapshots.csv``.

Usage: ``python -I -S _snapshot_writer.py OUT HEADER NUMPY_DIR``.  Reads
native float64 values from stdin: the point count ``n`` (one int64), the
grid ``x`` (``n`` values), then one record ``t, u[0..n), v[0..n)`` per
snapshot, and last a lone negative time, which no snapshot has, to mark
the end.  Writes ``HEADER`` and one ``t,x,u,v`` line per grid point per
snapshot to ``OUT``, every float as ``%.17g``, the text ``csvio.fmt``
gives, each record's lines in one write.  If the input ends before the end
mark, inside a record or not (the sender died), it removes ``OUT`` and
exits nonzero with the reason on stderr.  Started by
``csvio.SnapshotWriter``.

The text comes from ``_g17`` in this script's directory, which needs only
numpy.  ``-S`` leaves site-packages off ``sys.path`` and ``-I`` this
script's directory, so both are added: ``NUMPY_DIR`` is the directory that
holds the numpy package the parent imported.  Nothing from ``frontlab``
is imported.
"""

import os
import struct
import sys


def _read(stdin, size: int, what: str) -> bytes:
    data = stdin.read(size)
    if len(data) != size:
        raise SystemExit(f"snapshot stream ended inside {what} "
                         f"({len(data)} of {size} bytes)")
    return data


def main(out_name: str, header: str, numpy_dir: str) -> int:
    sys.path += [numpy_dir, os.path.dirname(os.path.abspath(__file__))]
    import numpy as np
    from _g17 import g17, snapshot_lines

    stdin = sys.stdin.buffer
    (n,) = struct.unpack("=q", _read(stdin, 8, "the point count"))
    try:
        with open(out_name, "wb") as out:
            out.write(header.encode("utf-8") + b"\n")
            x = g17(np.frombuffer(_read(stdin, 8 * n, "the grid"), dtype=np.float64))
            while True:
                (t,) = struct.unpack("=d", _read(stdin, 8, "a snapshot time or the end mark"))
                if t < 0.0:
                    return 0
                rec = np.frombuffer(_read(stdin, 16 * n, "a snapshot"), dtype=np.float64)
                out.write(snapshot_lines(t, x, rec[:n], rec[n:]))
    except BaseException:
        try:
            os.remove(out_name)
        except FileNotFoundError:
            pass
        raise


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
