"""Writer process for ``snapshots.csv``; standard library only.

Usage: ``python -I -S _snapshot_writer.py OUT HEADER``.  Reads native
float64 values from stdin: the point count ``n`` (one int64), the grid
``x`` (``n`` values), then one record ``t, u[0..n), v[0..n)`` per
snapshot, and last a lone negative time, which no snapshot has, to mark
the end.  Writes ``HEADER`` and one ``t,x,u,v`` line per grid point per
snapshot to ``OUT``, every float as ``%.17g``, the text ``csvio.fmt``
gives.  If the input ends before the end mark, inside a record or not
(the sender died), it removes ``OUT`` and exits nonzero with the reason
on stderr.  Started by ``csvio.SnapshotWriter``; it imports nothing from
``frontlab`` so that it starts without numpy.
"""

import os
import struct
import sys
from array import array


def _read(stdin, size: int, what: str) -> bytes:
    data = stdin.read(size)
    if len(data) != size:
        raise SystemExit(f"snapshot stream ended inside {what} "
                         f"({len(data)} of {size} bytes)")
    return data


def _copy(stdin, out, n: int) -> None:
    x = array("d", _read(stdin, 8 * n, "the grid"))
    template = "%s,%s,%.17g,%.17g\n" * n
    args = [None] * (4 * n)
    args[1::4] = ["%.17g" % xi for xi in x]
    while True:
        (t,) = struct.unpack("=d", _read(stdin, 8, "a snapshot time or the end mark"))
        if t < 0.0:
            return
        rec = array("d", _read(stdin, 16 * n, "a snapshot"))
        args[0::4] = ["%.17g" % t] * n
        args[2::4] = rec[:n]
        args[3::4] = rec[n:]
        out.write(template % tuple(args))


def main(out_name: str, header: str) -> int:
    stdin = sys.stdin.buffer
    (n,) = struct.unpack("=q", _read(stdin, 8, "the point count"))
    try:
        with open(out_name, "w", encoding="utf-8") as out:
            out.write(header + "\n")
            _copy(stdin, out, n)
    except BaseException:
        try:
            os.remove(out_name)
        except FileNotFoundError:
            pass
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
