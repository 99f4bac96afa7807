"""Golden outputs: the files `hybridnas search` writes, pinned by sha256.

The ``log.csv`` and ``genotype.txt`` hashes were recorded before the
architecture scores became one (2, E, O) array; the ``compare_strategies``
hash before the swarm became arrays.  A pure refactor must keep every byte
of these outputs (and of the saved tabular space) unchanged.  ``config.txt``
lists every config key, so its hashes change when a key is removed; they
were last re-recorded when the never-read dataset seed key was deleted.
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
STRATEGIES_SHA256 = "76636d3d7360cb83de1463b30d6feb369609c0476948f8c66d0abdd27c9c8eb4"

GOLDEN = {
    # (backend, seed): sha256 of log.csv, genotype.txt, config.txt
    ("supernet", 0): (
        "e6fd942341437d5a03d1381364ab67ce44c4ab59e20e8591af0ca24bc2682d70",
        "ed27777299c0c2497650696d7d405a3d312c235a65cd4d232c75d244eff04e57",
        "8be63b87473bd9102ae4ee83f4f3c4807b6bdc0a091a02363b1434804c50eeb7",
    ),
    ("supernet", 1): (
        "60e51abbd83e7a50382a0102575b25a5b4a9da2d6dd2468b6f0d2c0ac0223f3b",
        "d07911d9b983d727c207da7e36fb78aacb41aecbe1aa49b98ec71dd646a51f8f",
        "512169af3c08d80c915f4d2476fa37d10038c972272ed3f5b5b8450b9265528f",
    ),
    ("supernet", 2): (
        "3774391ec9935e999075061f508e667baefc2a97fb3ea194dc3007c8dbd47ed5",
        "bb3595ef85036710e01be82f2b6bea7d08d5d00d78103f2748d5c04c4a3fa4b3",
        "7cc664033444a5572722ebb1fc6e124a46839cbbadfb75b831c64b90c46126cf",
    ),
    ("supernet", 3): (
        "64d72406ba92be0960cdc61306254e31bd870c23e6551e1016a91283f045ccd9",
        "cfa40c50bbcdbd557474bfde8c88909990b3c12e8b1a13aec2bedc08e9f32160",
        "676e3f071c448b9b17c6502134d7faf574deaa4fc75b708f8770cdcbe7c2f2c3",
    ),
    ("supernet", 4): (
        "919e322b2005b98addede90a430f9288c2eab10b84844452efd055a3abe0684c",
        "75b3f4f6b43b35f1b9b12893ec6ebad13d4b7bf21d7bf2ca0fc467b76b8ae5d7",
        "2a5bb4b2c4d8abc7d6fca45bc8107c0bf4ce4023457f2f965b4774279ea2d075",
    ),
    ("supernet", 5): (
        "762feda4eb5c2e4e9b972b73833337f55f18e35684383e4af2c5c95d1ef3c866",
        "e668f79695ef00d8fc9fa931b1a0e2fc7eeb19ed7b25f435a70dff262e2cdfb9",
        "38bf6720a0d0c1a557f3d906f860cb4a61438be479cb6d37ee124ce27330c3a3",
    ),
    ("supernet", 6): (
        "c2592a7d1e887205fb5ac19596c27235ffa824d29bc079528796f6c02cbfd0c4",
        "ab8c0a04fa21d6d8c8a3f6d6e795e8f51ac79f30224c0a3e9afae1ac0b05b815",
        "8c6b3caa53a4c0a7aac26a035daea61e35358504d00aa21f4a70dba44d9a431c",
    ),
    ("supernet", 7): (
        "0af5807b020852466a75b0aad0670758b51d02535abc1c1f96d438b8d8d37f5c",
        "b180697768d4c4e5749efd6b47e113acff5c880ec8ff4070bff17322af5ce324",
        "4160c38829bd5ac2ae17bda2567855a0129eb498d92493bd82365ba884e9327a",
    ),
    ("supernet", 8): (
        "0e8a1d39cd566543590b9d85801a5e06c0b1b6e7e8013509e973ec52c4d88915",
        "170f9372777d78d6f7775fce22fec8cffcdc8a05dc7ceaa7c6e83d4ee43dddd7",
        "3c2adcdcaca0d6ee9f422be4280431216cf8e9e5ab682cdc34d96e42ebe964ea",
    ),
    ("supernet", 9): (
        "9117b8e493750e61667bc87ff8d98e475afb7ad6ad72e5f2117ca6e86e2890ea",
        "27999661ff6ece0b5c87d408971a30f8fb8601d75c6b53d4745e62d6a1c5ab5d",
        "91a950ec3c06712253df9b5f81a9f94a62d39b0c77e33d1909b62bb5b32c5849",
    ),
    ("tabular", 0): (
        "56698de4377273e23541057f8e8c189b58396c196c07157a8162b7da6d13e45b",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "5a58e9fb2f8220f79464f273de89436b9497fa81638f46d46f10ca3553e737e4",
    ),
    ("tabular", 1): (
        "bfa85c6b6628c011415d1412a4e1f4e2a143251c4d95d57ee229f9b17251f8c9",
        "c0961f2f9d5e101b12ff7d30d5ae000315422f16cccd08f46055322f820fd105",
        "3e72f39c651594428deb7d179ab4e9979986f5f8ff295ce5c19337354af052b8",
    ),
    ("tabular", 2): (
        "eb52044a91611e5c199da61a624b5a13a355baffab902f4227992abf969784c7",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "8503e3d0a6c9413f4ab0aa1b9814347e06cf2147172a247ed15804d869d46e81",
    ),
    ("tabular", 3): (
        "6fa2050ff668b4f74eab0c98c2d53338e1c08985c2695354f8c86554ee7264fe",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "76d7f2615e6a93ec67a38cffe06d1da1b759d16b09f81ee6b9cc6867579f7727",
    ),
    ("tabular", 4): (
        "bf689be73f87bfb954d8fde47d29dcb5d82011c9badb6b8d2369a75e5910c4e8",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "13fc1ba02000573525a39a1ceb92e187bdbd86bb7b4d19a968026a43b6c63d53",
    ),
    ("tabular", 5): (
        "59c93282d296322ed6c95d63ac7a09902971e513efea36bf1f6d2bd3aa806287",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "20b8312bb5871cbdadfc81fd401cb01442c46d2e9aa131ba9e06537c59f2964e",
    ),
    ("tabular", 6): (
        "f0446f7616a0fc9b262696fa6d57f3b1b04a1e415b42bbe3d519821120f43bc6",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "5642013a73489dcdcaa2159cb7187beadffc273ed28e0b383773acf8eeef8257",
    ),
    ("tabular", 7): (
        "eee7a7892fe97969558ca63114ca011c044d80dcd4723bbbd07f28bf7516919a",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "c256a4522c2190015f45f983827980592e0980bc3397d0d0f27a60f2344a5259",
    ),
    ("tabular", 8): (
        "0499e17c72d64f1f5102392549d8ff2343656c07ce8453ddfa0a99fa3d597376",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "b7c118e168425db2f4df13ed9a4a10c7f5deb99db7058ce252b2d599485df125",
    ),
    ("tabular", 9): (
        "600142e562312ec86dbc0520e3d86b347db3dd905abb24546c09039c416c0184",
        "c0961f2f9d5e101b12ff7d30d5ae000315422f16cccd08f46055322f820fd105",
        "430de61bfbb7ee1d016848ae4e2fbacfc43b7cee8ec0107f546733b2c74cc94d",
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
