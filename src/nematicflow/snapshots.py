"""Binary snapshot persistence for simulation states.

Format ("LCSF"): the 4-byte magic b"LCSF", then three little-endian uint32
words (version = 1, grid size N, component count), then each component as
N*N little-endian complex float64 values, row-major, in FFT coefficient
ordering.  A state is written as five components: u_x, u_y, d_x, d_y, and a
metadata component whose (0, 0) entry holds the time t (remaining entries
zero).  Loading reverses the layout bit-exactly, so load(persist(s)) == s
down to the last bit.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .dynamics import State
from .grid import GridSpec, SpectralField, VectorField2

MAGIC = b"LCSF"
VERSION = 1
STATE_COMPONENTS = 5
_HEADER = struct.Struct("<4sIII")


class SnapshotFormatError(ValueError):
    """Raised for bad magic, version, or component layout; names the offset."""


class SnapshotSizeError(ValueError):
    """Raised when a snapshot's grid does not match the requested grid."""


def write_snapshot(path, fields, n_modes):
    """Write raw complex coefficient arrays (each N x N) to an LCSF file."""
    arrays = [np.ascontiguousarray(f, dtype="<c16") for f in fields]
    for a in arrays:
        if a.shape != (n_modes, n_modes):
            raise SnapshotSizeError(
                f"component shape {a.shape} does not match grid {n_modes}"
            )
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, n_modes, len(arrays)))
        for a in arrays:
            fh.write(a.tobytes(order="C"))


def read_snapshot(path):
    """Read an LCSF file; returns (list of complex arrays, n_modes).

    The header is checked before any of the body is read: N must be even
    and >= 8, and the declared payload must fit in the rest of the file.
    A file that cannot be opened or read raises SnapshotFormatError too.
    """
    try:
        with open(path, "rb") as fh:
            return _read_lcsf(fh)
    except OSError as exc:
        raise SnapshotFormatError(f"cannot read snapshot {path}: {exc}") from exc


def _read_lcsf(fh):
    """The body of read_snapshot, on an open binary file."""
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise SnapshotFormatError(
            f"truncated header: {len(head)} bytes at offset 0"
        )
    magic, version, n_modes, ncomp = _HEADER.unpack(head)
    if magic != MAGIC:
        raise SnapshotFormatError(f"bad magic {magic!r} at offset 0")
    if version != VERSION:
        raise SnapshotFormatError(f"unsupported version {version} at offset 4")
    if n_modes < 8 or n_modes % 2 != 0 or ncomp == 0:
        raise SnapshotFormatError(
            f"invalid dimensions N={n_modes}, components={ncomp} at offset 8"
            " (N must be even and >= 8)"
        )
    per_comp = n_modes * n_modes * 16
    size = os.fstat(fh.fileno()).st_size
    fitting = (size - _HEADER.size) // per_comp
    if fitting < ncomp:
        raise SnapshotFormatError(
            f"truncated component {fitting}: file ends at offset {size}"
        )
    out = []
    for k in range(ncomp):
        raw = fh.read(per_comp)
        if len(raw) < per_comp:
            offset = _HEADER.size + k * per_comp + len(raw)
            raise SnapshotFormatError(
                f"truncated component {k}: file ends at offset {offset}"
            )
        out.append(
            np.frombuffer(raw, dtype="<c16").reshape(n_modes, n_modes).copy()
        )
    return out, int(n_modes)


def persist(state, path):
    """Write a state's four field components plus a time-carrying component."""
    n = state.grid.n_modes
    meta = np.zeros((n, n), dtype=np.complex128)
    meta[0, 0] = state.t
    write_snapshot(
        path,
        [state.u.x.coeffs, state.u.y.coeffs, state.d.x.coeffs,
         state.d.y.coeffs, meta],
        n,
    )


def load(path, grid=None):
    """Read a state snapshot; grid (if given) must match the stored size."""
    arrays, n = read_snapshot(path)
    if len(arrays) != STATE_COMPONENTS:
        raise SnapshotFormatError(
            f"state snapshots carry {STATE_COMPONENTS} components, "
            f"found {len(arrays)}"
        )
    if grid is None:
        grid = GridSpec(n)
    elif grid.n_modes != n:
        raise SnapshotSizeError(
            f"snapshot grid {n} does not match configured grid {grid.n_modes}"
        )
    u = VectorField2(
        SpectralField(grid, arrays[0], True), SpectralField(grid, arrays[1], True)
    )
    d = VectorField2(
        SpectralField(grid, arrays[2], True), SpectralField(grid, arrays[3], True)
    )
    t = float(arrays[4][0, 0].real)
    return State(grid, u, d, t)
