"""The committed golden bill table still describes the code.

Recomputes ``tests/golden_bills.json`` (see ``tests/golden_bills.py`` for
what it pins and how to regenerate it) and requires it byte-identical: a
change to any charged access sequence, answer or peak model memory on the
table's inputs fails here, naming the rows that moved.
"""

from __future__ import annotations

import json

from golden_bills import TABLE_PATH, compute_table, differences, render


def test_golden_bill_table_is_unchanged():
    expected = json.loads(TABLE_PATH.read_text())
    actual = compute_table()
    assert differences(expected, actual) == []
    assert render(actual) == TABLE_PATH.read_text()
