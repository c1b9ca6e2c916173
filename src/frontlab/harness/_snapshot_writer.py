"""Writer process for ``snapshots.csv``; standard library only.

Usage: ``python -I -S _snapshot_writer.py OUT HEADER``.  Reads native
float64 values from stdin: the point count ``n`` (one int64), the grid
``x`` (``n`` values), then one record ``t, u[0..n), v[0..n)`` per
snapshot until end of input.  Writes ``HEADER`` and one ``t,x,u,v`` line
per grid point per snapshot to ``OUT``, every float as ``%.17g``, the
text ``csvio.fmt`` gives.  Exits nonzero, with the reason on stderr, if
the input ends inside a record.  Started by ``csvio.SnapshotWriter``; it
imports nothing from ``frontlab`` so that it starts without numpy.
"""

import struct
import sys
from array import array


def _read(stdin, size: int, what: str, end_ok: bool = False) -> bytes:
    data = stdin.read(size)
    if len(data) != size and not (end_ok and not data):
        raise SystemExit(f"snapshot stream ended inside {what} "
                         f"({len(data)} of {size} bytes)")
    return data


def main(out_name: str, header: str) -> int:
    stdin = sys.stdin.buffer
    (n,) = struct.unpack("=q", _read(stdin, 8, "the point count"))
    x = array("d", _read(stdin, 8 * n, "the grid"))
    template = "%s,%s,%.17g,%.17g\n" * n
    args = [None] * (4 * n)
    args[1::4] = ["%.17g" % xi for xi in x]
    with open(out_name, "w", encoding="utf-8") as out:
        out.write(header + "\n")
        while data := _read(stdin, 8 * (1 + 2 * n), "a snapshot", end_ok=True):
            rec = array("d", data)
            args[0::4] = ["%.17g" % rec[0]] * n
            args[2::4] = rec[1:n + 1]
            args[3::4] = rec[n + 1:]
            out.write(template % tuple(args))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
