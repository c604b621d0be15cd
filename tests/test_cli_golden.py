"""Byte-level pins of the command line: exit code, stdout, stderr and `-o` files.

The corpus and the recorder live in `record_cli_goldens.py`; the digests in
`cli_goldens.json`.
"""

import json

import pytest

from record_cli_goldens import CASES, GOLDENS, run_case, write_inputs

GOLDEN = json.loads(GOLDENS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-golden")
    write_inputs(root)
    return root


def test_goldens_cover_the_corpus():
    assert sorted(GOLDEN) == sorted(CASES)
    assert all(GOLDEN[key]["argv"] == argv for key, (argv, _) in CASES.items())


@pytest.mark.parametrize("key", sorted(CASES))
def test_cli_output_matches_golden(key, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    argv, pinned = CASES[key]
    expected = {k: v for k, v in GOLDEN[key].items() if k != "argv"}
    assert run_case(argv, pinned) == expected
