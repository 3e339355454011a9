"""Byte identity of the CLI's artefacts.

Every file the commands below write is pinned by its sha256, so that a
change to the library which alters an artefact by one byte fails here.
Only the files are digested, not stdout, which names temporary paths.
"""

import hashlib

from astriples.cli import run

GROUPS = ("asl2:2", "asl2:3", "asl2:4", "asl2:5", "asl2:7", "asl2:8",
          "agl1:7", "agl2:3", "psl2:5", "psl2:9", "psl2:32")
ORACLE_QS = (2, 3, 4, 5, 7, 8)
CENSUSES = {"nu5": ("--nu", "5"), "nu6": ("--nu", "6"),
            "circulant7": ("--nu", "7", "--circulant")}

DIGESTS = {
    "construct asl2:2":
        "649f5e42f5693e55e50140492c5402b5b967b72dea4842ebaf29f686b2b0b4f9",
    "params asl2:2":
        "f593ef19297c60fff3a1d9ad8fee39778f3ec46681eb5e2efca1d350d8b7783d",
    "construct asl2:3":
        "006da8de17a74c97b68c53b34d2dfe716cefcf4f17e06f4e84e1f6f7936b0102",
    "params asl2:3":
        "1d5e3b90faeb9b2230495514834cc06917902d8b6be84a5a3000605cf083623a",
    "construct asl2:4":
        "e6233437bc343608f4ebd30a125b77a93eb30712a0f084caba11f69d5a5b1bf0",
    "params asl2:4":
        "bc914fdc4760005ca83d74e21eb396b6d10376301c268a5b3b84e7f4870559a6",
    "construct asl2:5":
        "91b239b58b09b2efe7fc112227c609dc4874f7ffa6c1e53bd773f144bb96c80b",
    "params asl2:5":
        "a417307d345b78df56d17198d095b6f41508721a03cf87b2b7fff6e8620b05ce",
    "construct asl2:7":
        "f97c9591918aab5f4b571da01bfbb3dd78907c784554dfd5c83afb8a471c4c88",
    "params asl2:7":
        "299571d99421c28cd61b21f78c5d84abb011b509eb9f67d13eba892d513c5aef",
    "construct asl2:8":
        "1e5f45bd2eb716872bc3b4d6aa5132fe535f9b159f29fc443b209c7425b9aabb",
    "params asl2:8":
        "3b6a6757617741956a9fa26d84052577d8f9c5815c2d06711fb9ae516b86860f",
    "construct agl1:7":
        "cb9b1e34b51cecc7e927991d7788a6750e51e0dc31e783984aea97e02cd0c638",
    "params agl1:7":
        "cd09b3dfbf0e3855ce40424339f79f9ec22c907d9031eb91dc292fc98244c5de",
    "construct agl2:3":
        "36a3838f3ee3a451dbee5c5efdfc658609606deccf615660cd9321ab6f502f1c",
    "params agl2:3":
        "7cd3eff3857c2f21389b72e9000cf183ea10e01db31be041e91e0eb3dca0d97a",
    "construct psl2:5":
        "8684c1db2e1e92da7e09c7cc32618d6427a1a9e0a9a123ad53f8ea9caa7feda3",
    "params psl2:5":
        "ec78bc4704260491e1c7de12abb58458ee03d3c75a868b56a7e2061400d047ef",
    "construct psl2:9":
        "15fcd3480dc8fb25ea929b59373e7a36eb05e679e9f9a9ea46f058e0c7dd493f",
    "params psl2:9":
        "ea476794cbaac2d319fc836e1c4e2a57b9b68d0a13c4b7d52c3fd5b6301ded18",
    "construct psl2:32":
        "40468c54a4146a0b3259965783cc73f0f5ce7853b777093396b654bd174f31cc",
    "params psl2:32":
        "6f9b0abc8e09cd06c39b083461cf7245eacd221fe6a80e8ee6d533cebd2c23d5",
    "oracle asl2 2":
        "52a82af4f9764111f4c74180ec363d974656ccd999af7d0ab76b00770e65a73b",
    "oracle asl2 3":
        "cd73489aba1540c26ed334640c4396c4bdc12a79007933cf7eff5dd7f46d2002",
    "oracle asl2 4":
        "c69e19c5ebc99ff067c6a5930752966cf34024eb30c284e8b526a95f5e0741d2",
    "oracle asl2 5":
        "704e9e7a4e47c42bef1ce309b8085158a41dee76d75cc71faef157000f407254",
    "oracle asl2 7":
        "8a70a0f748bae145f6cd6557bc01768cc455ee84e94381faebd2426f7fb0e52b",
    "oracle asl2 8":
        "8f020e655fdedcb110e08f86211830d5abf63431ae8db32b7d6d7df44f266269",
    "enumerate nu5":
        "6968b56c00e98e01a43bc1e98c8f8e112240715dae17e2bcdd4ee8f85302a421",
    "enumerate nu6":
        "15898aba431993b0c9f566b0e799db631c017bfe968e5ec1cf9f709a9b4115e2",
    "enumerate circulant7":
        "2a159bf95a9352acac61c7f2385214a0bc9252a2c6668a4efa9b431357876417",
}


def _digest(path):
    """sha256 of a file, or of a directory's sorted (name, sha256) lines."""
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    lines = sorted(f"{p.relative_to(path).as_posix()}\t{_digest(p)}\n"
                   for p in path.rglob("*") if p.is_file())
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def artefact_digests(tmp_path):
    """The sha256 of each artefact, keyed by the command that wrote it."""
    commands = {}
    for spec in GROUPS:
        name = spec.replace(":", "_")
        scheme = tmp_path / f"{name}.json"
        commands[f"construct {spec}"] = (
            ["construct", "--group", spec, "--out", str(scheme)], scheme)
        tensor = tmp_path / f"{name}.tensor.json"
        commands[f"params {spec}"] = (
            ["params", str(scheme), "--tensor", str(tensor)], tensor)
    for q in ORACLE_QS:
        report = tmp_path / f"oracle{q}.json"
        commands[f"oracle asl2 {q}"] = (
            ["oracle", "asl2", "--q", str(q), "--report", str(report)], report)
    for name, flags in CENSUSES.items():
        outdir = tmp_path / name
        commands[f"enumerate {name}"] = (
            ["enumerate", *flags, "--out", str(outdir)], outdir)
    digests = {}
    for key, (argv, artefact) in commands.items():
        assert run(argv) == 0, key
        digests[key] = _digest(artefact)
    return digests


def test_artefacts_are_byte_identical(tmp_path, capsys):
    digests = artefact_digests(tmp_path)
    capsys.readouterr()
    assert digests == DIGESTS
