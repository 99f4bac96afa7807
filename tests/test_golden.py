"""Golden outputs: the files `hybridnas search` writes, pinned by sha256.

The ``log.csv`` and ``genotype.txt`` hashes were recorded before the
architecture scores became one (2, E, O) array; the ``compare_strategies``
hash before the swarm became arrays.  A pure refactor must keep every byte
of these outputs (and of the saved tabular spaces) unchanged.  ``config.txt``
lists every config key, so its hashes change when a key is removed; they
were last re-recorded when the two never-used loss-bound override keys
were deleted.
Runs use relative paths inside a temporary working directory, so
``config.txt`` does not depend on where the test runs.

* supernet: ``--stability-threshold 0.6 --max-epochs 20``; every seed passes
  through warm-up, exploration and stability.
* tabular: a 4-op, one-node space from ``generate_space`` (seed 3),
  ``--max-epochs 25``.
* swarm baselines: the repr of ``compare_strategies`` on a 40-dimensional
  Rastrigin function, three seeds, 24 generations of 60 particles; it runs
  ``run_triplet_swarm``, ``run_pairwise_cso`` and ``run_random_search``.
"""

import hashlib

import pytest

from hybridnas.bench import compare_strategies
from hybridnas.cli import main_cli
from hybridnas.supernet import ArchLayout
from hybridnas.tabular import generate_space, save_space

SEEDS = range(10)
FILES = ("log.csv", "genotype.txt", "config.txt")
TABULAR_OPS = ("zero", "skip", "linear", "relu_linear")

SPACE_SHA256 = "4ae5386474ac93c1b567df04a4b1a75e8741f7392364b990735681dd62fc99bb"
# 59,049 genotypes: ArchLayout(2, ("zero", "skip", "linear")), seed 1000
WIDE_SPACE_SHA256 = "641ba0cb125d3df048336681f3eb022612022e212bbc12bb8383085f0ab0e343"
STRATEGIES_SHA256 = "76636d3d7360cb83de1463b30d6feb369609c0476948f8c66d0abdd27c9c8eb4"

GOLDEN = {
    # (backend, seed): sha256 of log.csv, genotype.txt, config.txt
    ("supernet", 0): (
        "e6fd942341437d5a03d1381364ab67ce44c4ab59e20e8591af0ca24bc2682d70",
        "ed27777299c0c2497650696d7d405a3d312c235a65cd4d232c75d244eff04e57",
        "f94398764c6ecf1e137b9220730d2f73040b1ec4db7bc02a661bb6581779b046",
    ),
    ("supernet", 1): (
        "60e51abbd83e7a50382a0102575b25a5b4a9da2d6dd2468b6f0d2c0ac0223f3b",
        "d07911d9b983d727c207da7e36fb78aacb41aecbe1aa49b98ec71dd646a51f8f",
        "043c269bea505910858382d7112cefa55e13b91972cba927b412c17bdb1b5044",
    ),
    ("supernet", 2): (
        "3774391ec9935e999075061f508e667baefc2a97fb3ea194dc3007c8dbd47ed5",
        "bb3595ef85036710e01be82f2b6bea7d08d5d00d78103f2748d5c04c4a3fa4b3",
        "8e80329a87cc23525c7d7ca2e094078d134f4dc1e11f66323fdaba7876b086f8",
    ),
    ("supernet", 3): (
        "64d72406ba92be0960cdc61306254e31bd870c23e6551e1016a91283f045ccd9",
        "cfa40c50bbcdbd557474bfde8c88909990b3c12e8b1a13aec2bedc08e9f32160",
        "f9d292ad3479b350f2032f25617f2e98a6b61b95032d07718e41c35a5415b9af",
    ),
    ("supernet", 4): (
        "919e322b2005b98addede90a430f9288c2eab10b84844452efd055a3abe0684c",
        "75b3f4f6b43b35f1b9b12893ec6ebad13d4b7bf21d7bf2ca0fc467b76b8ae5d7",
        "90f6f183af90e4af907adc21d290c4c327ad6a3546897bd43b505780b7a21466",
    ),
    ("supernet", 5): (
        "762feda4eb5c2e4e9b972b73833337f55f18e35684383e4af2c5c95d1ef3c866",
        "e668f79695ef00d8fc9fa931b1a0e2fc7eeb19ed7b25f435a70dff262e2cdfb9",
        "7bc99200c2a33bb0a10c99cda169f8ccb676181756e20e4bd12b3ee3c9d5c706",
    ),
    ("supernet", 6): (
        "c2592a7d1e887205fb5ac19596c27235ffa824d29bc079528796f6c02cbfd0c4",
        "ab8c0a04fa21d6d8c8a3f6d6e795e8f51ac79f30224c0a3e9afae1ac0b05b815",
        "5ff01f5c286efc6772e501d34c57d7c4ab90ef14cc2b8ddef712fef342d9f82c",
    ),
    ("supernet", 7): (
        "0af5807b020852466a75b0aad0670758b51d02535abc1c1f96d438b8d8d37f5c",
        "b180697768d4c4e5749efd6b47e113acff5c880ec8ff4070bff17322af5ce324",
        "e0c7746b3e2b0eaa37acf76ba44a168070cd40cfdb3a6aabebd2da88a1cd8bda",
    ),
    ("supernet", 8): (
        "0e8a1d39cd566543590b9d85801a5e06c0b1b6e7e8013509e973ec52c4d88915",
        "170f9372777d78d6f7775fce22fec8cffcdc8a05dc7ceaa7c6e83d4ee43dddd7",
        "7ae6b9c32eb57aa1af20dacb0390ba7a27407ca3e2ca232032d020cf12edaf0a",
    ),
    ("supernet", 9): (
        "9117b8e493750e61667bc87ff8d98e475afb7ad6ad72e5f2117ca6e86e2890ea",
        "27999661ff6ece0b5c87d408971a30f8fb8601d75c6b53d4745e62d6a1c5ab5d",
        "bc4398221238671c134a71ec1472e40c7f8fecb35f53a950c6c65d1302747d9b",
    ),
    ("tabular", 0): (
        "56698de4377273e23541057f8e8c189b58396c196c07157a8162b7da6d13e45b",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "32968fb3ee7198ad8d0634f9b3d8170a01ab49519065879243ad6000216aef4d",
    ),
    ("tabular", 1): (
        "bfa85c6b6628c011415d1412a4e1f4e2a143251c4d95d57ee229f9b17251f8c9",
        "c0961f2f9d5e101b12ff7d30d5ae000315422f16cccd08f46055322f820fd105",
        "bfa35a6582043b663e5acbc4a066ed9cf0782ef80da3cf4c00c33942625bd0c0",
    ),
    ("tabular", 2): (
        "eb52044a91611e5c199da61a624b5a13a355baffab902f4227992abf969784c7",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "9607cd3d89df4e0dd76ff95b839c5915cc8db6f16bf6526361f2904d826786ba",
    ),
    ("tabular", 3): (
        "6fa2050ff668b4f74eab0c98c2d53338e1c08985c2695354f8c86554ee7264fe",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "2f95965f9f0b98730c94c482f5c1f05f9b58d93145ba3ed981fffb82e04aee7a",
    ),
    ("tabular", 4): (
        "bf689be73f87bfb954d8fde47d29dcb5d82011c9badb6b8d2369a75e5910c4e8",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "ad4413667c94c26c90cda4bc3e738e389a01428f778284fa9c1733abd88cd69d",
    ),
    ("tabular", 5): (
        "59c93282d296322ed6c95d63ac7a09902971e513efea36bf1f6d2bd3aa806287",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "33bd698d8b28c8fc7d29c1189da3730654fd26ba17febafd060899a2e72adf05",
    ),
    ("tabular", 6): (
        "f0446f7616a0fc9b262696fa6d57f3b1b04a1e415b42bbe3d519821120f43bc6",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "21f54662839cb555025e0f7690da15ee185501ae71b4ec7ef290704c689bf0b3",
    ),
    ("tabular", 7): (
        "eee7a7892fe97969558ca63114ca011c044d80dcd4723bbbd07f28bf7516919a",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "a40dc7386880cbd074e0f40fbc71d842de323997e77cd717c88cdcdfe637f2cd",
    ),
    ("tabular", 8): (
        "0499e17c72d64f1f5102392549d8ff2343656c07ce8453ddfa0a99fa3d597376",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "18db5ddf6ef60c5cd362cdc6010b98130a71da46e6a9a27ac5ac48e29743c3ce",
    ),
    ("tabular", 9): (
        "600142e562312ec86dbc0520e3d86b347db3dd905abb24546c09039c416c0184",
        "c0961f2f9d5e101b12ff7d30d5ae000315422f16cccd08f46055322f820fd105",
        "899cef2d6b43cb694eaaf96cb697ba3f258993c71949e8db63217b8535aed455",
    ),
}


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_space(directory) -> str:
    space = generate_space(ArchLayout(1, TABULAR_OPS), 3)
    save_space(space, str(directory / "space.txt"))
    return "space.txt"


def search_args(backend: str, seed: int) -> list[str]:
    args = ["search", "--seed", str(seed), "--out", "run"]
    if backend == "supernet":
        return args + ["--stability-threshold", "0.6", "--max-epochs", "20"]
    return args + ["--backend", "tabular", "--space", "space.txt",
                   "--num-nodes", "1", "--ops", ",".join(TABULAR_OPS),
                   "--max-epochs", "25"]


def output_hashes(directory, backend: str, seed: int) -> tuple[str, ...]:
    """Run one search inside ``directory``; sha256 of each output file."""
    if backend == "tabular":
        write_space(directory)
    assert main_cli(search_args(backend, seed)) == 0
    return tuple(sha256(directory / "run" / name) for name in FILES)


def test_saved_space_is_golden(tmp_path):
    assert sha256(tmp_path / write_space(tmp_path)) == SPACE_SHA256


def test_saved_wide_space_is_golden(tmp_path):
    # SPACE_SHA256 has 256 rows; this space has every row of a 2-node cell.
    space = generate_space(ArchLayout(2, ("zero", "skip", "linear")), 1000)
    save_space(space, str(tmp_path / "wide.txt"))
    assert sha256(tmp_path / "wide.txt") == WIDE_SPACE_SHA256


def test_one_genotype_space_is_golden():
    # Every score is the lowest and the highest, so t is 0.5.
    space = generate_space(ArchLayout(1, ("zero",)), 5)
    assert space.metrics.tolist() == [
        [0.31015624999999997, 0.29782296335969227, 0.7501518984957412]]


def test_swarm_baselines_are_golden():
    results = compare_strategies("rastrigin", 40, 60 * 8 * 3, [1, 2, 3])
    assert hashlib.sha256(repr(results).encode()).hexdigest() == STRATEGIES_SHA256


@pytest.mark.parametrize("backend", ["supernet", "tabular"])
@pytest.mark.parametrize("seed", SEEDS)
def test_search_outputs_are_golden(tmp_path, monkeypatch, backend, seed):
    monkeypatch.chdir(tmp_path)
    got = output_hashes(tmp_path, backend, seed)
    for name, g, want in zip(FILES, got, GOLDEN[backend, seed]):
        assert g == want, f"{backend} seed {seed}: {name} changed"
