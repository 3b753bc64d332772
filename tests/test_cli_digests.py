"""Golden stdout corpus: canonical forms in Q(q) are unique, so any change
to the field arithmetic must leave these outputs byte-identical."""

import hashlib

import pytest

from qrook.cli import main

CORPUS = [
    (
        ["verify", "--family", "rook", "--k", "4"],
        "ce21ef245cf88b15b45d6cc870ca273724ce33a2263d930346fe94e9fac46252",
    ),
    (
        ["verify", "--family", "aAlg", "--k", "4", "--u", "1,3"],
        "ab054ee42d8aa9949af7c817c1578d5a0059cd80ee465507357c47ba6b78aef5",
    ),
    (
        ["verify", "--family", "cyclo", "--k", "3", "--u", "1,3"],
        "66b352c6706109377379ca69c6aeaceb3e2cabd683b6f825f8858e56ae34f1c8",
    ),
    (
        ["verify", "--family", "Bprime", "--k", "4"],
        "690c3b7be1f711540af598d7373e2d1702af2c89491efb85d2102718b8ccb825",
    ),
    (
        ["rep", "--multi", "[[1],[2,1]]", "--u", "1,3"],
        "7c0d303a2c8d21c66c9e4187b7c4f7acc2d23eea7f2839727885014f1c74e262",
    ),
]


@pytest.mark.parametrize("argv,digest", CORPUS, ids=[" ".join(a) for a, _ in CORPUS])
def test_stdout_digest(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
