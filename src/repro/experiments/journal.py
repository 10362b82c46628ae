"""Crash-safe sweep journal: append-only record of completed cells.

A sweep is identified by the ordered content addresses (cache keys) of
all its ``(configuration, replication)`` cells — :func:`sweep_id`
hashes them, so the same spec with the same replication count always
maps to the same id, and *any* change to the grid maps to a different
one.  While the sweep runs, the journal appends one JSON line per
completed cell and flushes immediately, so a ``kill -9`` at any
instant leaves a valid prefix on disk.

:func:`read_journal` is the one reader of the format, shared by
``--resume`` and ``repro-locking top``.  It is tolerant: a torn line
(the usual crash artefact) or a line that is not a JSON object is
skipped on its own, and a journal written for a *different* sweep id
reads as empty rather than poisoning the resume.  The journal records
progress only; the results themselves live in the content-addressed
cache, which is what a resumed sweep reads them back from.

File format (JSONL)::

    {"sweep": "<id>", "cells": 12, "label": "table1"}   # header
    {"done": "<cache key>"}                             # one per cell
    {"done": "<cache key>", "provenance": "analytic"}   # accelerator fill
    {"done": "<cache key>", "result": {...}}            # faulted sweeps
    {"finished": true}                                  # clean end

Faulted sweeps (a :class:`~repro.faults.plan.FaultPlan` in force)
never touch the result cache, so their cells journal the full output
record inline and resume reads it back; the JSON float round-trip is
exact, so a resumed faulted sweep is bit-identical to an uninterrupted
one.
"""

import hashlib
import json
import os


def sweep_id(cell_keys):
    """Stable identity of a sweep: hash of its ordered cell addresses."""
    digest = hashlib.sha256("\n".join(cell_keys).encode("ascii"))
    return digest.hexdigest()[:16]


def read_journal(path, sweep=None):
    """Tolerantly parse the journal at *path* into a progress dict.

    Returns ``{"sweep", "label", "cells", "done", "analytic",
    "finished"}``: the header's fields (``None`` when the first line is
    not a header), ``done`` mapping every completed cell key to its
    inline result record (``None`` when the result lives in the cache),
    the number of cells filled with provenance ``"analytic"``, and
    whether a ``{"finished": true}`` footer is present.

    A missing file reads as the empty state, and a line that is torn
    (a crash mid-append) or is not a JSON object is skipped on its own.
    With *sweep*, a journal written for any other sweep id also reads
    as the empty state, so progress never resumes across sweeps.
    """
    state = {
        "sweep": None,
        "label": None,
        "cells": None,
        "done": {},
        "analytic": 0,
        "finished": False,
    }
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except OSError:
        return state
    entries = []
    for line in lines:
        try:
            entry = json.loads(line)
        except ValueError:
            entry = None
        entries.append(entry if isinstance(entry, dict) else {})
    if entries and "sweep" in entries[0]:
        header = entries.pop(0)
        if sweep is not None and header["sweep"] != sweep:
            return state
        state.update(
            sweep=header["sweep"],
            label=header.get("label"),
            cells=header.get("cells"),
        )
    elif sweep is not None:
        return state
    for entry in entries:
        if isinstance(entry.get("done"), str):
            state["done"][entry["done"]] = entry.get("result")
            if entry.get("provenance") == "analytic":
                state["analytic"] += 1
        if entry.get("finished"):
            state["finished"] = True
    return state


class SweepJournal:
    """Append-only progress journal for one sweep file.

    Parameters
    ----------
    path:
        Journal file location; parent directories are created on
        :meth:`begin`.
    """

    def __init__(self, path):
        self.path = str(path)
        self._handle = None

    def __repr__(self):
        return "<SweepJournal {!r}>".format(self.path)

    # -- writing ---------------------------------------------------------

    def begin(self, sweep, cells, label=None, keep=False):
        """Open the journal for appending under sweep id *sweep*.

        With ``keep=True`` an existing journal for the *same* sweep is
        preserved and appended to (the resume path); otherwise, and
        always when the on-disk journal belongs to a different sweep,
        the file is rewritten with a fresh header.
        """
        preserve = keep and read_journal(self.path)["sweep"] == sweep
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        if preserve:
            with open(self.path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                torn = handle.read(1) != b"\n"
            self._handle = open(self.path, "a")
            if torn:
                # End the line a crash tore, so the next record does
                # not run into it and get skipped with it.
                self._handle.write("\n")
        else:
            self._handle = open(self.path, "w")
            header = {"sweep": sweep, "cells": cells}
            if label is not None:
                header["label"] = label
            self._write(header)

    def record(self, key, provenance=None, result=None):
        """Append one completed cell and flush it to disk.

        *provenance* tags cells not produced by the simulator (the
        analytic accelerator records ``"analytic"``); plain simulated
        or cached cells omit the field.  :func:`read_journal` treats
        both as done.  *result* (an output dict) is stored inline for faulted
        sweeps, whose results never reach the cache.
        """
        if self._handle is not None:
            entry = {"done": key}
            if provenance is not None:
                entry["provenance"] = provenance
            if result is not None:
                entry["result"] = result
            self._write(entry)

    def finish(self):
        """Append the clean-completion marker."""
        if self._handle is not None:
            self._write({"finished": True})

    def close(self):
        """Flush and close the journal file (idempotent)."""
        if self._handle is not None:
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except (OSError, ValueError):
                pass
            self._handle.close()
            self._handle = None

    def _write(self, entry):
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        try:
            os.fsync(self._handle.fileno())
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
