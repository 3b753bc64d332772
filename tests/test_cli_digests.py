"""Golden stdout corpus: canonical forms in Q(q) are unique, so any change
to the field arithmetic, the tensor-space operators or the
semisimplicity predicates must leave these outputs byte-identical.  Each
entry is (argv, exit code, sha256 of stdout)."""

import hashlib

import pytest

from qrook import forked
from qrook.cli import main

CORPUS = [
    (
        ["verify", "--family", "rook", "--k", "4"],
        0,
        "ce21ef245cf88b15b45d6cc870ca273724ce33a2263d930346fe94e9fac46252",
    ),
    (
        ["verify", "--family", "aAlg", "--k", "4", "--u", "1,3"],
        0,
        "ab054ee42d8aa9949af7c817c1578d5a0059cd80ee465507357c47ba6b78aef5",
    ),
    (
        ["verify", "--family", "cyclo", "--k", "3", "--u", "1,3"],
        0,
        "66b352c6706109377379ca69c6aeaceb3e2cabd683b6f825f8858e56ae34f1c8",
    ),
    (
        ["verify", "--family", "Bprime", "--k", "4"],
        0,
        "690c3b7be1f711540af598d7373e2d1702af2c89491efb85d2102718b8ccb825",
    ),
    (
        ["rep", "--multi", "[[1],[2,1]]", "--u", "1,3"],
        0,
        "7c0d303a2c8d21c66c9e4187b7c4f7acc2d23eea7f2839727885014f1c74e262",
    ),
    (
        ["schurweyl", "--m", "1,1", "--k", "4", "--u", "0,1"],
        0,
        "7df9c0d104040507125cd47bebbc3274b081b80c65ec14f6acf42e11165e2c76",
    ),
    (
        ["schurweyl", "--m", "1,2", "--k", "3", "--u", "0,1"],
        0,
        "2ede4bfddd4ba69623de84d3827869f11879c2fc153b0ad952dfa74d25cd8e67",
    ),
    (
        ["semisimple", "--family", "aAlg", "--k", "2", "--u", "1,q^2"],
        0,
        "859d06a5ba2fac12157e3600a4fc25aa7394749ad3e8826c9e43f1bad6e4f45b",
    ),
    (
        ["semisimple", "--family", "cyclo", "--k", "3", "--u", "1,q^6", "--q", "2"],
        0,
        "b21760097d383cfc89cd570b2469b7b33cd0a365df07957b4c921df38edc1050",
    ),
    (
        ["semisimple", "--family", "aAlg", "--k", "3", "--u", "1,2", "--q", "1/2"],
        0,
        "1199888e0b828d0bb2dd83b936e14644fb63aa7a5c7e67405091294d43ad1089",
    ),
    (
        ["verify", "--family", "Ak", "--k", "4"],
        0,
        "d8ac71db25744e559b3ff133033a8c2d0ea96a62c7b3de229a82d412661bfde4",
    ),
    (
        ["verify", "--family", "rook", "--k", "3", "--q", "1"],
        0,
        "b74e537b220483cd5512593e80adc3aa8186d9ccdf95d7da9c45cf3e2556cb8d",
    ),
    (
        ["verify", "--family", "cyclo", "--k", "3", "--u", "1,3", "--q", "5"],
        0,
        "66b352c6706109377379ca69c6aeaceb3e2cabd683b6f825f8858e56ae34f1c8",
    ),
    (
        ["dims", "--rook", "9"],
        0,
        "3c6e6cc83a4ab5ebba5a2c51d52664b1afea5da8f050e5463b7f32177ee988d3",
    ),
    (
        ["tableaux", "--skew", "[3,2]/[1]"],
        0,
        "aeaf224a8b8891d8650a7d614ae086de2115f0999112f43e2626edb77ed2d132",
    ),
    (
        ["rep", "--skew", "[3,2]/[1]", "--k", "4"],
        0,
        "6252a0c88c6a08f514a53ad116ff68d6a9b19b9d424eb8d20e77373911572347",
    ),
    # the word span where every pivot lead is a unit +-q^a (u = (0, 1)),
    # and where an early lead is 1 - q^2 (u = (1, 3))
    (
        ["schurweyl", "--m", "1,1", "--k", "5", "--u", "0,1"],
        0,
        "8578a73721d5e2130364dad063d5b4793ce508f71d2bbdfd473f03975d540e2b",
    ),
    (
        ["schurweyl", "--m", "1,1", "--k", "4", "--u", "1,3"],
        0,
        "edc178ad672f82a818f0a35dbc4d06f77fea77da238c41e3a26a411fae185c5b",
    ),
    # u = (1, 3) at k = 5: about 24,000 gcds, 2 in 5 non-trivial
    (
        ["schurweyl", "--m", "1,1", "--k", "5", "--u", "1,3"],
        0,
        "0bc89f4b3c9112c108951244eae021d76788958bb7816e447dc6479efc4509bd",
    ),
    # n^k = 128: the word span of the largest tensor-space action in the corpus
    (
        ["schurweyl", "--m", "1,1", "--k", "7", "--u", "0,1"],
        0,
        "eddb21c53b730f872b8d1314d790c1062a74db23c738dcd455825406a86b8c08",
    ),
    # nested int lists in the JSON writer's general path
    (
        ["bratteli", "--family", "B", "--levels", "4"],
        0,
        "e3ba4dc5dcae232fa53fa60b4d3d7d8c019f63b36c836d2b897499a91105f1bc",
    ),
    # specialisation at a q0 that is not an integer
    (
        ["verify", "--family", "aAlg", "--k", "4", "--u", "1,3", "--q", "1/2"],
        0,
        "ab054ee42d8aa9949af7c817c1578d5a0059cd80ee465507357c47ba6b78aef5",
    ),
    # a failing payload: at u = (1, 1) the suites pass but the word span
    # falls short of the predicted centralizer dimension, so exit 1
    (
        ["schurweyl", "--m", "1,1", "--k", "3", "--u", "1,1"],
        1,
        "9e9e4d2cc3359f88a088e81f9c2fd39cbd019fbacf56f6c22bcab7f9f7a91549",
    ),
]


@pytest.mark.parametrize("argv,code,digest", CORPUS, ids=[" ".join(a) for a, *_ in CORPUS])
def test_stdout_digest(capsys, argv, code, digest):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the commands that fork: verify over modules, schurweyl its suites beside its span
VERIFY = [entry for entry in CORPUS if entry[0][0] in ("verify", "schurweyl")]


@pytest.mark.parametrize("argv,code,digest", VERIFY, ids=[" ".join(a) for a, *_ in VERIFY])
def test_stdout_digest_in_two_workers(monkeypatch, capsys, argv, code, digest):
    monkeypatch.setattr(forked, "_cpu_count", lambda: 2)
    test_stdout_digest(capsys, argv, code, digest)
