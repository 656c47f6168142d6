"""Binary snapshot persistence for simulation states.

Format ("LCSF"): the 4-byte magic b"LCSF", then three little-endian uint32
words (version = 1, grid size N, component count), then each component as
N*N little-endian complex float64 values, row-major, in FFT coefficient
ordering.  A state is written as five components: u_x, u_y, d_x, d_y, and a
metadata component whose (0, 0) entry holds the time t (remaining entries
zero).

Fields are held as half spectra (see grid).  persist expands each one by
f_{-n} = conj(f_n); load requires each field component to have zero Nyquist
lines and to be finite and Hermitian within the tolerance of
SpectralField.from_coeffs, and the metadata component to hold a finite real
time and zeros elsewhere, raising SnapshotFormatError naming the component
otherwise.  It keeps each field's ny >= 0 half as stored.  So
load(persist(s)) == s down to the last bit, and a loaded file persists back
to the same bytes.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .dynamics import State
from .grid import GridError, GridSpec, SpectralField, VectorField2, _tables

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


def _full(half):
    """The full N x N coefficients of a real field's half spectrum."""
    n = half.shape[0]
    full = np.zeros((n, n), dtype=np.complex128)
    full[:, : n // 2 + 1] = half
    # columns N/2 + 1 .. N - 1 hold ny = -(N/2 - 1) .. -1
    full[:, n // 2 + 1:] = np.conj(half[_tables(n)["mirror"], n // 2 - 1:0:-1])
    return full


def persist(state, path):
    """Write a state's four field components plus a time-carrying component."""
    n = state.grid.n_modes
    meta = np.zeros((n, n), dtype=np.complex128)
    meta[0, 0] = state.t
    fields = (state.u.x, state.u.y, state.d.x, state.d.y)
    write_snapshot(path, [_full(f.coeffs) for f in fields] + [meta], n)


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
    ux, uy, dx, dy = (_field(grid, a, name)
                      for a, name in zip(arrays, ("u_x", "u_y", "d_x", "d_y")))
    return State(grid, VectorField2(ux, uy), VectorField2(dx, dy),
                 _time(arrays[4]))


def _time(meta):
    """The time t that the metadata component holds, checked."""
    if np.any(meta.ravel()[1:]):
        raise SnapshotFormatError(
            "component metadata has nonzero entries other than (0, 0)")
    t = meta[0, 0]
    if t.imag != 0.0 or not np.isfinite(t.real):
        raise SnapshotFormatError(
            f"component metadata: time {t} is not a finite real number")
    return float(t.real)


def _field(grid, coeffs, name):
    """The real field of one stored component, checked."""
    h = grid.n_modes // 2
    if np.any(coeffs[h, :]) or np.any(coeffs[:, h]):
        raise SnapshotFormatError(f"component {name} has nonzero Nyquist modes")
    try:
        return SpectralField.from_coeffs(grid, coeffs)
    except GridError as exc:
        raise SnapshotFormatError(f"component {name}: {exc}") from exc
