"""Kernel selection: exactly ``"bitset"`` and ``"set"``, by one rule.

An explicit ``kernel=`` wins, then ``PMBC_KERNEL``, then ``"bitset"``.
Every place a kernel can be named rejects anything else — including
the retired ``"words"`` kernel — with the same ``ValueError`` (exit 2
from argparse on the CLI).
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.kernel import KERNEL_ENV_VAR, KERNEL_KINDS, resolve_kernel
from repro.serve import ServiceConfig


def test_kernel_kinds_are_bitset_and_set():
    assert KERNEL_KINDS == ("bitset", "set")


def test_selection_order(monkeypatch):
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    assert resolve_kernel() == "bitset"
    monkeypatch.setenv(KERNEL_ENV_VAR, "set")
    assert resolve_kernel() == "set"
    assert resolve_kernel("bitset") == "bitset"


def test_words_rejected_everywhere(monkeypatch, tmp_path, capsys):
    with pytest.raises(ValueError, match="kernel must be one of"):
        resolve_kernel("words")
    with pytest.raises(ValueError, match="kernel must be one of"):
        ServiceConfig(kernel="words")
    monkeypatch.setenv(KERNEL_ENV_VAR, "words")
    with pytest.raises(ValueError, match="kernel must be one of"):
        resolve_kernel()
    monkeypatch.delenv(KERNEL_ENV_VAR)
    edges = tmp_path / "g.txt"
    edges.write_text("0 0\n")
    with pytest.raises(SystemExit) as exc:
        main(["serve", str(edges), "--kernel", "words"])
    assert exc.value.code == 2
    assert "invalid choice: 'words'" in capsys.readouterr().err
