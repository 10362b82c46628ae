"""Unit tests for the crash-safe sweep journal."""

import json

import pytest

from repro.experiments.journal import SweepJournal, read_journal, sweep_id

KEYS = ["k1", "k2", "k3"]
SID = sweep_id(KEYS)

#: What :func:`read_journal` returns for a missing, empty or foreign file.
EMPTY = {
    "sweep": None,
    "label": None,
    "cells": None,
    "done": {},
    "analytic": 0,
    "finished": False,
}


@pytest.fixture
def journal(tmp_path):
    return SweepJournal(tmp_path / "sweep.journal")


class TestSweepId:
    def test_stable(self):
        assert sweep_id(KEYS) == sweep_id(list(KEYS))

    def test_sensitive_to_membership_and_order(self):
        assert sweep_id(KEYS) != sweep_id(KEYS[:2])
        assert sweep_id(KEYS) != sweep_id(list(reversed(KEYS)))

    def test_short_hex(self):
        sid = sweep_id(KEYS)
        assert len(sid) == 16
        int(sid, 16)  # raises if not hex


class TestLifecycle:
    def test_record_and_load_round_trip(self, journal):
        sid = sweep_id(KEYS)
        journal.begin(sid, len(KEYS), label="tiny")
        journal.record("k1")
        journal.record("k2")
        journal.close()
        state = read_journal(journal.path, sid)
        assert state["done"] == {"k1": None, "k2": None}
        assert state["finished"] is False

    def test_finish_marks_clean_end(self, journal):
        sid = sweep_id(KEYS)
        journal.begin(sid, len(KEYS))
        for key in KEYS:
            journal.record(key)
        journal.finish()
        journal.close()
        state = read_journal(journal.path, sid)
        assert state["finished"] is True
        assert set(state["done"]) == set(KEYS)

    def test_context_manager_closes(self, tmp_path):
        sid = sweep_id(KEYS)
        with SweepJournal(tmp_path / "cm.journal") as journal:
            journal.begin(sid, len(KEYS))
            journal.record("k1")
        assert journal._handle is None
        assert set(read_journal(journal.path, sid)["done"]) == {"k1"}

    def test_creates_parent_directories(self, tmp_path):
        journal = SweepJournal(tmp_path / "deep" / "nested" / "s.journal")
        journal.begin(sweep_id(KEYS), len(KEYS))
        journal.close()
        assert (tmp_path / "deep" / "nested" / "s.journal").exists()

    def test_header_records_shape(self, journal):
        sid = sweep_id(KEYS)
        journal.begin(sid, len(KEYS), label="fig2")
        journal.close()
        with open(journal.path) as handle:
            header = json.loads(handle.readline())
        assert header == {"sweep": sid, "cells": 3, "label": "fig2"}


def _clean(journal):
    journal.begin(SID, len(KEYS), label="tiny")
    for key in KEYS:
        journal.record(key)
    journal.finish()


def _torn_tail(journal):
    journal.begin(SID, len(KEYS))
    journal.record("k1")
    journal.close()
    with open(journal.path, "a") as handle:
        handle.write('{"done": "k2')  # the crash artefact


def _torn_middle_then_finished(journal):
    _torn_tail(journal)
    journal.begin(SID, len(KEYS), keep=True)  # the resumed run
    journal.record("k2")
    journal.record("k3")
    journal.finish()


def _foreign_header(journal):
    journal.begin("aaaa", 3)
    journal.record("k1")
    journal.finish()


def _non_dict_lines(journal):
    journal.begin(SID, len(KEYS))
    journal.record("k1")
    journal.close()
    with open(journal.path, "a") as handle:
        handle.write('[1, 2]\n"text"\n42\nnull\n{"done": ["k2"]}\n')
    journal.begin(SID, len(KEYS), keep=True)
    journal.finish()


def _faulted_inline_results(journal):
    journal.begin(SID, len(KEYS))
    journal.record("k1", result={"throughput": 0.1, "totcom": 3})
    journal.record("k2", result={"throughput": 0.2, "totcom": 4})


def _analytic_provenance(journal):
    journal.begin(SID, len(KEYS), label="fig2")
    journal.record("k1", provenance="analytic")
    journal.record("k2")
    journal.finish()


#: name -> (writer, fields of the expected state that differ from a
#: bare ``SID`` header with ``cells == 3``).
READER_CASES = {
    "clean": (
        _clean,
        {"label": "tiny", "done": dict.fromkeys(KEYS), "finished": True},
    ),
    "torn-tail": (_torn_tail, {"done": {"k1": None}}),
    "torn-middle-then-finished": (
        _torn_middle_then_finished,
        {"done": dict.fromkeys(KEYS), "finished": True},
    ),
    "foreign-header": (
        _foreign_header,
        {"sweep": "aaaa", "done": {"k1": None}, "finished": True},
    ),
    "non-dict-lines": (
        _non_dict_lines, {"done": {"k1": None}, "finished": True}
    ),
    "faulted-inline-results": (
        _faulted_inline_results,
        {
            "done": {
                "k1": {"throughput": 0.1, "totcom": 3},
                "k2": {"throughput": 0.2, "totcom": 4},
            },
        },
    ),
    "analytic-provenance": (
        _analytic_provenance,
        {
            "label": "fig2",
            "done": {"k1": None, "k2": None},
            "analytic": 1,
            "finished": True,
        },
    ),
}


class TestReadJournal:
    @pytest.mark.parametrize("case", list(READER_CASES))
    def test_reader(self, journal, case):
        """``top`` reads the whole state; resume reads it only when the
        header names the sweep being resumed."""
        write, fields = READER_CASES[case]
        write(journal)
        journal.close()
        expected = dict(EMPTY, sweep=SID, cells=3)
        expected.update(fields)
        assert read_journal(journal.path) == expected
        assert read_journal(journal.path, SID) == (
            expected if expected["sweep"] == SID else EMPTY
        )


class TestTolerantLoading:
    def test_missing_file_is_empty(self, journal):
        assert read_journal(journal.path) == EMPTY
        assert read_journal(journal.path, "whatever") == EMPTY

    def test_garbage_header_is_empty(self, journal, tmp_path):
        with open(journal.path, "w") as handle:
            handle.write("not json at all\n")
        assert read_journal(journal.path, "aaaa") == EMPTY

    def test_empty_file_is_empty(self, journal):
        open(journal.path, "w").close()
        assert read_journal(journal.path) == EMPTY
        assert read_journal(journal.path, "aaaa") == EMPTY


class TestResumeSemantics:
    def test_keep_appends_to_matching_sweep(self, journal):
        sid = sweep_id(KEYS)
        journal.begin(sid, len(KEYS))
        journal.record("k1")
        journal.close()
        journal.begin(sid, len(KEYS), keep=True)
        journal.record("k2")
        journal.close()
        assert set(read_journal(journal.path, sid)["done"]) == {"k1", "k2"}

    def test_keep_rewrites_on_sweep_mismatch(self, journal):
        journal.begin("aaaa", 3)
        journal.record("k1")
        journal.close()
        other = sweep_id(KEYS)
        journal.begin(other, len(KEYS), keep=True)
        journal.record("k2")
        journal.close()
        assert set(read_journal(journal.path, other)["done"]) == {"k2"}
        assert read_journal(journal.path, "aaaa") == EMPTY

    def test_fresh_begin_truncates(self, journal):
        sid = sweep_id(KEYS)
        journal.begin(sid, len(KEYS))
        journal.record("k1")
        journal.close()
        journal.begin(sid, len(KEYS))  # keep defaults to False
        journal.close()
        assert read_journal(journal.path, sid)["done"] == {}

    def test_record_before_begin_is_a_noop(self, journal):
        journal.record("k1")  # no handle yet: must not raise
        journal.finish()
        journal.close()
