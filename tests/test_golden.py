"""Golden outputs: the files `hybridnas search` writes, pinned by sha256.

The hashes were recorded before the architecture scores became one
(2, E, O) array and the dead config knobs were deleted; a pure refactor must
keep every byte of ``log.csv``, ``genotype.txt`` and ``config.txt`` (and of
the saved tabular space) unchanged.  Runs use relative paths inside a
temporary working directory, so ``config.txt`` does not depend on where the
test runs.

* supernet: ``--stability-threshold 0.6 --max-epochs 20``; every seed passes
  through warm-up, exploration and stability.
* tabular: a 4-op, one-node space from ``generate_space`` (seed 3),
  ``--max-epochs 25``.
"""

import hashlib

import pytest

from hybridnas.cli import main_cli
from hybridnas.supernet import ArchLayout
from hybridnas.tabular import generate_space, save_space

SEEDS = range(10)
FILES = ("log.csv", "genotype.txt", "config.txt")
TABULAR_OPS = ("zero", "skip", "linear", "relu_linear")

SPACE_SHA256 = "4ae5386474ac93c1b567df04a4b1a75e8741f7392364b990735681dd62fc99bb"

GOLDEN = {
    # (backend, seed): sha256 of log.csv, genotype.txt, config.txt
    ("supernet", 0): (
        "e6fd942341437d5a03d1381364ab67ce44c4ab59e20e8591af0ca24bc2682d70",
        "ed27777299c0c2497650696d7d405a3d312c235a65cd4d232c75d244eff04e57",
        "156996b15c417f190280d860675dedf40b2422926ce7e3c76d94946b9eaf413b",
    ),
    ("supernet", 1): (
        "60e51abbd83e7a50382a0102575b25a5b4a9da2d6dd2468b6f0d2c0ac0223f3b",
        "d07911d9b983d727c207da7e36fb78aacb41aecbe1aa49b98ec71dd646a51f8f",
        "eaefd8f6672f9f606fed5d5dedae72b9035a865c71840462cf47a6556c915317",
    ),
    ("supernet", 2): (
        "3774391ec9935e999075061f508e667baefc2a97fb3ea194dc3007c8dbd47ed5",
        "bb3595ef85036710e01be82f2b6bea7d08d5d00d78103f2748d5c04c4a3fa4b3",
        "9ff6664d5375903c8021762c854dbca49dbcebcd4d0eb7a23959c8c6f03cdd4d",
    ),
    ("supernet", 3): (
        "64d72406ba92be0960cdc61306254e31bd870c23e6551e1016a91283f045ccd9",
        "cfa40c50bbcdbd557474bfde8c88909990b3c12e8b1a13aec2bedc08e9f32160",
        "eb57840de68f07d0f43b0ae681f04cbaefa038b319abfce5696400603876df2d",
    ),
    ("supernet", 4): (
        "919e322b2005b98addede90a430f9288c2eab10b84844452efd055a3abe0684c",
        "75b3f4f6b43b35f1b9b12893ec6ebad13d4b7bf21d7bf2ca0fc467b76b8ae5d7",
        "872695878ecd2d30c9bcba87508c7eeb1300276ef6210d4a0e562a5dd07d81b9",
    ),
    ("supernet", 5): (
        "762feda4eb5c2e4e9b972b73833337f55f18e35684383e4af2c5c95d1ef3c866",
        "e668f79695ef00d8fc9fa931b1a0e2fc7eeb19ed7b25f435a70dff262e2cdfb9",
        "af66f97de939f9afb40e676defc288bf4220ec234fc6d0b608b87847ee0e8b57",
    ),
    ("supernet", 6): (
        "c2592a7d1e887205fb5ac19596c27235ffa824d29bc079528796f6c02cbfd0c4",
        "ab8c0a04fa21d6d8c8a3f6d6e795e8f51ac79f30224c0a3e9afae1ac0b05b815",
        "ddc515811957e26fbf35db7f280033701b6fb9b2a7a3decba1970d1985ef0aed",
    ),
    ("supernet", 7): (
        "0af5807b020852466a75b0aad0670758b51d02535abc1c1f96d438b8d8d37f5c",
        "b180697768d4c4e5749efd6b47e113acff5c880ec8ff4070bff17322af5ce324",
        "e48e8a55fbfabd67753793357dbb78914d8653cb554ea89061ab2cc9532844b7",
    ),
    ("supernet", 8): (
        "0e8a1d39cd566543590b9d85801a5e06c0b1b6e7e8013509e973ec52c4d88915",
        "170f9372777d78d6f7775fce22fec8cffcdc8a05dc7ceaa7c6e83d4ee43dddd7",
        "372479f4e0b70991eb0a9c2d263ae12801088e3d8cd199145b3adb4c36ad8eb5",
    ),
    ("supernet", 9): (
        "9117b8e493750e61667bc87ff8d98e475afb7ad6ad72e5f2117ca6e86e2890ea",
        "27999661ff6ece0b5c87d408971a30f8fb8601d75c6b53d4745e62d6a1c5ab5d",
        "11e2e7e9f9e3fa0ec7dbb160473054c3b8ac789ec9ba52314a473a8ff05bf39a",
    ),
    ("tabular", 0): (
        "56698de4377273e23541057f8e8c189b58396c196c07157a8162b7da6d13e45b",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "f48c2f48d05a30bacfc724abe6592acdbe6d042a97731f105499ca3180c1d184",
    ),
    ("tabular", 1): (
        "bfa85c6b6628c011415d1412a4e1f4e2a143251c4d95d57ee229f9b17251f8c9",
        "c0961f2f9d5e101b12ff7d30d5ae000315422f16cccd08f46055322f820fd105",
        "b11d862efde54135d6524836a56a9edfef3b9613396b9d695fdf8b12a55be793",
    ),
    ("tabular", 2): (
        "eb52044a91611e5c199da61a624b5a13a355baffab902f4227992abf969784c7",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "0a497701cba7e31a0e70e9539c853196c6dead37bd81bd57a4b836f0e5199ecb",
    ),
    ("tabular", 3): (
        "6fa2050ff668b4f74eab0c98c2d53338e1c08985c2695354f8c86554ee7264fe",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "329c5147680eb4fc19a55bfa410899a700ef4d76b34d9c35c9741a7cdabcb1b3",
    ),
    ("tabular", 4): (
        "bf689be73f87bfb954d8fde47d29dcb5d82011c9badb6b8d2369a75e5910c4e8",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "adc8c449244219fb1b021271ecf787368692ba8ae9a7a4f92f0d4c985cdcf89f",
    ),
    ("tabular", 5): (
        "59c93282d296322ed6c95d63ac7a09902971e513efea36bf1f6d2bd3aa806287",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "19562110a3d45c73ffd48059436071e5d41a7630f5827497e0a71cf07e80a9ba",
    ),
    ("tabular", 6): (
        "f0446f7616a0fc9b262696fa6d57f3b1b04a1e415b42bbe3d519821120f43bc6",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "12ea96dce29a27dbeaf95eea71f05d73bf07720f67e0155113b82d2464ed8451",
    ),
    ("tabular", 7): (
        "eee7a7892fe97969558ca63114ca011c044d80dcd4723bbbd07f28bf7516919a",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "7a0dd242c6563dbeec74f1876c48d5aa47e6e514da7744306a06dc941f7ca19a",
    ),
    ("tabular", 8): (
        "0499e17c72d64f1f5102392549d8ff2343656c07ce8453ddfa0a99fa3d597376",
        "0e7be8a15136a046076ee859cf472aa69cd9b6078e2a55f0cd90c56d511a11a2",
        "bf882528cd902f25acf3e0d28c1f4bbad67dcca81cfdeca2c35aa3c5cdc9d60d",
    ),
    ("tabular", 9): (
        "600142e562312ec86dbc0520e3d86b347db3dd905abb24546c09039c416c0184",
        "c0961f2f9d5e101b12ff7d30d5ae000315422f16cccd08f46055322f820fd105",
        "6141849c112fb6476dc45807ca1b20dd714f14827cf6e29cf7af56b60d6570a0",
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


@pytest.mark.parametrize("backend", ["supernet", "tabular"])
@pytest.mark.parametrize("seed", SEEDS)
def test_search_outputs_are_golden(tmp_path, monkeypatch, backend, seed):
    monkeypatch.chdir(tmp_path)
    got = output_hashes(tmp_path, backend, seed)
    for name, g, want in zip(FILES, got, GOLDEN[backend, seed]):
        assert g == want, f"{backend} seed {seed}: {name} changed"
