"""Dependency-vector FSM invariants."""

from hypothesis import given, strategies as st

from repro.machine import (
    DEP_NULL,
    DEP_READ,
    DEP_WAR,
    DEP_WRITTEN,
    DepVector,
)


def test_initially_null():
    dep = DepVector(16)
    assert dep.counts()[DEP_NULL] == 16


def test_read_marks_read():
    dep = DepVector(8)
    dep.mark_read(2, 3)
    assert list(dep.buf[2:5]) == [DEP_READ] * 3
    assert dep.read_indices() == [2, 3, 4]


def test_write_marks_written():
    dep = DepVector(8)
    dep.mark_write(1, 2)
    assert list(dep.buf[1:3]) == [DEP_WRITTEN] * 2
    assert dep.written_indices() == [1, 2]
    assert dep.read_indices() == []


def test_write_after_read_is_war():
    dep = DepVector(4)
    dep.mark_read(0)
    dep.mark_write(0)
    assert dep.buf[0] == DEP_WAR
    # WAR bytes are both dependencies and outputs.
    assert dep.read_indices() == [0]
    assert dep.written_indices() == [0]


def test_read_after_write_stays_written():
    dep = DepVector(4)
    dep.mark_write(0)
    dep.mark_read(0)
    assert dep.buf[0] == DEP_WRITTEN
    assert dep.read_indices() == []


def test_reset():
    dep = DepVector(4)
    dep.mark_read(0)
    dep.mark_write(1)
    dep.reset()
    assert dep.counts()[DEP_NULL] == 4


def test_reset_zeroes_in_place():
    # Translated blocks hold the bytearray itself (as ``g``): reset
    # must clear that object, not swap in a new one.
    dep = DepVector(64)
    buf = dep.buf
    dep.mark_read(0, 8)
    dep.mark_write(4, 8)
    dep.mark_write(63)
    dep.reset()
    assert dep.buf is buf
    assert buf == bytearray(64)
    assert dep.touched_indices() == []


_FSM_EXPECTED = {
    # (status, op) -> next status
    (DEP_NULL, "r"): DEP_READ,
    (DEP_NULL, "w"): DEP_WRITTEN,
    (DEP_READ, "r"): DEP_READ,
    (DEP_READ, "w"): DEP_WAR,
    (DEP_WRITTEN, "r"): DEP_WRITTEN,
    (DEP_WRITTEN, "w"): DEP_WRITTEN,
    (DEP_WAR, "r"): DEP_WAR,
    (DEP_WAR, "w"): DEP_WAR,
}


@given(ops=st.lists(st.sampled_from("rw"), max_size=12))
def test_fsm_matches_specification(ops):
    dep = DepVector(1)
    expected = DEP_NULL
    for op in ops:
        if op == "r":
            dep.mark_read(0)
        else:
            dep.mark_write(0)
        expected = _FSM_EXPECTED[(expected, op)]
        assert dep.buf[0] == expected


@given(ops=st.lists(st.sampled_from("rw"), min_size=1, max_size=12))
def test_semantics_first_access_determines_dependency(ops):
    """A byte is a dependency iff its first access was a read."""
    dep = DepVector(1)
    for op in ops:
        if op == "r":
            dep.mark_read(0)
        else:
            dep.mark_write(0)
    is_dependency = 0 in dep.read_indices()
    assert is_dependency == (ops[0] == "r")
    is_output = 0 in dep.written_indices()
    assert is_output == ("w" in ops)
