"""Fuzz tests of the two file readers: snapshots and configs.

Whatever the bytes, read_snapshot/load may only raise SnapshotFormatError
or SnapshotSizeError, and parse_config only ConfigError.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nematicflow import (
    ConfigError,
    GridSpec,
    SnapshotFormatError,
    SnapshotSizeError,
    State,
    generate_initial,
    load,
    parse_config,
    persist,
    read_snapshot,
)
from nematicflow.configio import _KNOWN

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
SNAPSHOT_ERRORS = (SnapshotFormatError, SnapshotSizeError)


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as path:
        yield path


@pytest.fixture(scope="module")
def valid_snapshot(workdir):
    grid = GridSpec(8)
    u, d = generate_initial(grid, profile="random", seed=4)
    path = os.path.join(workdir, "valid.lcsf")
    persist(State(grid, u, d, 0.25), path)
    with open(path, "rb") as fh:
        return fh.read()


def _write(workdir, name, data):
    path = os.path.join(workdir, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def _read_all_ways(path):
    for reader in (read_snapshot, load, lambda p: load(p, GridSpec(8))):
        try:
            reader(path)
        except SNAPSHOT_ERRORS:
            pass


@SETTINGS
@given(st.one_of(st.binary(max_size=64),
                 st.binary(min_size=12, max_size=48).map(lambda b: b"LCSF" + b)))
def test_snapshot_reader_on_random_bytes(workdir, data):
    _read_all_ways(_write(workdir, "random.lcsf", data))


@SETTINGS
@given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 255)),
                min_size=1, max_size=6),
       st.one_of(st.none(), st.integers(0, 10_000)))
def test_snapshot_reader_on_mutated_files(workdir, valid_snapshot, edits, cut):
    """Byte edits, biased towards the 16-byte header, and truncation."""
    data = bytearray(valid_snapshot)
    for position, value in edits:
        data[position % 32 if position % 2 else position % len(data)] = value
    if cut is not None:
        data = data[: cut % (len(data) + 1)]
    _read_all_ways(_write(workdir, "mutated.lcsf", bytes(data)))


def test_valid_snapshot_reads_back(workdir, valid_snapshot):
    state = load(_write(workdir, "valid_copy.lcsf", valid_snapshot))
    assert state.grid.n_modes == 8 and state.t == 0.25


_VALUES = st.one_of(
    st.sampled_from(["16", "32", "7", "0", "-1", "2.0", "1.5", "1e-3", "0.01",
                     "1e308", "1e-308", "inf", "nan", "imex1", "imex2",
                     "ansatz", "random", "perturb", "1,0", "64,128", "%(x)s",
                     "%", "", "3 # comment"]),
    st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=12),
)


@st.composite
def _config_text(draw):
    """Known sections and keys, none repeated, so that values reach their
    casts and validators (unknown names are tested in
    test_snapshots_config_cli.py)."""
    lines = []
    for section in draw(st.lists(st.sampled_from(sorted(_KNOWN)), max_size=4,
                                 unique=True)):
        lines.append(f"[{section}]")
        keys = st.sampled_from(sorted(_KNOWN[section]))
        for key in draw(st.lists(keys, max_size=5, unique=True)):
            lines.append(f"{key} = {draw(_VALUES)}")
    return "\n".join(lines) + "\n"


def _parse(workdir, data):
    path = _write(workdir, "fuzz.ini", data)
    try:
        parse_config(path)
    except ConfigError:
        pass


@SETTINGS
@given(_config_text())
def test_config_parser_on_generated_text(workdir, text):
    _parse(workdir, text.encode("utf-8"))


@SETTINGS
@given(st.binary(max_size=80))
def test_config_parser_on_raw_bytes(workdir, data):
    _parse(workdir, data)


@pytest.mark.parametrize("body", [
    "[time]\ndt = 1e-3\nt_end = inf\n",
    "[time]\ndt = 1e-308\nt_end = 1e308\n",
    "[time]\ndt = nan\nt_end = 1\n",
    "[initial]\nprofile = %(x)s\n",
])
def test_config_edge_values_are_config_errors(workdir, body):
    with pytest.raises(ConfigError):
        parse_config(_write(workdir, "edge.ini", body.encode()))
