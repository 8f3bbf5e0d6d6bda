"""Golden CLI output: the stdout, stderr and exit code of a fixed list of
commands, pinned as sha256 digests, so a change that must leave the output
byte-identical is checked on every run.

A digest changes only with a deliberate change of output.  Print the new
table with `PYTHONPATH=src python tests/test_cli_golden.py` and say in the
change which output changed and why.
"""

import hashlib
import os
from unittest import mock

import pytest

from test_cli import invoke

_SCAN = ("scan", "--level", "32", "--from", "-3", "--to", "-400")

COMMANDS = (
    ("table", "maincor", "--parallel", "1"),
    ("table", "cubes", "--parallel", "2"),
    ("table", "discs"),
    ("check", "--level", "32", "--disc", "-11", "--json", "--dump-forms"),
    ("check", "--level", "27", "--disc", "-3115", "--dump-forms"),
    ("check", "--level", "15", "--disc", "-39", "--json"),
    ("check", "--level", "32", "--disc", "-219", "--oracle"),
    ("check", "--level", "32", "--disc", "-219", "--oracle", "--json"),
    _SCAN + ("--parallel", "1"),
    _SCAN + ("--parallel", "2"),
    _SCAN + ("--good-only", "--parallel", "1"),
    _SCAN + ("--good-only", "--parallel", "2"),
    _SCAN + ("--json", "--parallel", "1"),
    _SCAN + ("--good-only", "--json", "--parallel", "2"),
    ("scan", "--level", "17", "--from", "-3", "--to", "-200", "--good-only", "--oracle",
     "--parallel", "1"),
    ("scan", "--level", "49", "--from", "-3", "--to", "-150", "--good-only", "--oracle",
     "--parallel", "2"),
    ("scan", "--level", "11", "--from", "-3", "--to", "-300", "--good-only", "--oracle",
     "--parallel", "1"),
    ("congruent", "11"),
    ("cubes", "7"),
    # error cases
    ("check", "--level", "32", "--disc", "-7"),
    ("check", "--level", "13", "--disc", "-11"),
    ("check", "--level", "32", "--disc", "-9"),
    ("scan", "--level", "32", "--from", "-9", "--to", "-5"),
    ("scan", "--level", "32", "--from", "-3", "--to", "-20", "--oracle"),
    ("scan", "--level", "32", "--from", "-3", "--to", "-5", "--parallel", "-1"),
    ("congruent", "7"),
    ("cubes", "5"),
)

DIGESTS = {
    "table maincor --parallel 1":
        "1d575b14109a7c2269510d37f0664e2d6a24c1434aee528f6e150d93a6cd8a9c",
    "table cubes --parallel 2":
        "af9fd0848e026bb58b63524b8f1f7d31f280bff614c9620eb9a598d949e6dc27",
    "table discs":
        "90931a49d2015f0d4f3e321b60aa8a53fa6723deb68576297516e117032725b8",
    "check --level 32 --disc -11 --json --dump-forms":
        "d6c1a69f3db590fb3c7570707dfdbfd4388b1f74a8632c20a7057bd0908f17d8",
    "check --level 27 --disc -3115 --dump-forms":
        "0c0b775f384250709ff9d561d4331626684e01fdcfbfd149d89d63dd3eea0c86",
    "check --level 15 --disc -39 --json":
        "9028141c43c9ae046e1e8baccf6a149cd9e9537e57e054b4aaa5b54abe9b700c",
    "check --level 32 --disc -219 --oracle":
        "15baa165da2597ec33ac52e5439cb64f2a36f92683f1428e3b5f67245be4e00a",
    "check --level 32 --disc -219 --oracle --json":
        "992adcc4fc34f48b4535475cce16529bfc634894413c774ae89ea9edcbb00160",
    "scan --level 32 --from -3 --to -400 --parallel 1":
        "a13c516b93936bf1617e86492f92d2e0a9a93928be2fc52cb5db2c71f5a2d16e",
    "scan --level 32 --from -3 --to -400 --parallel 2":
        "a13c516b93936bf1617e86492f92d2e0a9a93928be2fc52cb5db2c71f5a2d16e",
    "scan --level 32 --from -3 --to -400 --good-only --parallel 1":
        "2d77d1fe09b987ea5e1bf0d4e82bcdc1b6115bd0c7a716e7df22ea118502ebe6",
    "scan --level 32 --from -3 --to -400 --good-only --parallel 2":
        "2d77d1fe09b987ea5e1bf0d4e82bcdc1b6115bd0c7a716e7df22ea118502ebe6",
    "scan --level 32 --from -3 --to -400 --json --parallel 1":
        "41008bdb16ca709f7455b639f49eab505b30f83de90045f51e3abe92a00dbb59",
    "scan --level 32 --from -3 --to -400 --good-only --json --parallel 2":
        "0bdc671fda02b24447bc89d2eb040429acf44ae144adc92458acf7281fe9af34",
    "scan --level 17 --from -3 --to -200 --good-only --oracle --parallel 1":
        "9ac06169a89d2973f5f0b9021d2b1d6ee55a595400caf460d6e373f64ea65fe3",
    "scan --level 49 --from -3 --to -150 --good-only --oracle --parallel 2":
        "73e47f63a86b0e70e3d09e83b655344b9ffbcab6c1aae95eb057384305b9f3d6",
    "scan --level 11 --from -3 --to -300 --good-only --oracle --parallel 1":
        "7f342f1ead13532e713bb024eb8e3da592dc24fe5b56af4f59b1820a1df8432d",
    "congruent 11":
        "0043dab8bec013f32f1a90b704d72dc5124ace00eff184d0da1594f9d10a144f",
    "cubes 7":
        "461ec07ce27190415c151ab3189bb3a1eeece93f45c22bb5b2fcbfb4cf1882d0",
    "check --level 32 --disc -7":
        "4b0224e6e3a6e4d87eb1ef745faebe40653b920347f3ab575c3dd0d622ffa4d4",
    "check --level 13 --disc -11":
        "751fa2e50af2e5a6e6992c0f397f201fe65a05de2ba4c950462868d701eb8326",
    "check --level 32 --disc -9":
        "1034279425d3cdffefcac5e9065245efdd74c702969ae927bae8989e1c1604ef",
    "scan --level 32 --from -9 --to -5":
        "11652c4df00874218db1659d72f3b8176c71ba7dc3cab8078ad35573000d5efa",
    "scan --level 32 --from -3 --to -20 --oracle":
        "fa2303b16da1e2587f7c8bd55b3d4367b3d91609c42bf38a54ed192c88860610",
    "scan --level 32 --from -3 --to -5 --parallel -1":
        "82ad6bcf2a0fa40b0a18d6f911695890a70fb327317b5414a30aeb5c1cb5cb27",
    "congruent 7":
        "4b0224e6e3a6e4d87eb1ef745faebe40653b920347f3ab575c3dd0d622ffa4d4",
    "cubes 5":
        "6709dc517a5077a4ec58cd9a9d59d740925fb48037397c9740236bc3bcdd688e",
}


def _digest(argv) -> str:
    with mock.patch.dict(os.environ, COLUMNS="80"):  # argparse wraps usage to the terminal
        result = invoke(*argv)
    h = hashlib.sha256()
    for part in (result.stdout, result.stderr, str(result.exit_code)):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_is_golden(argv):
    assert _digest(argv) == DIGESTS[" ".join(argv)]


if __name__ == "__main__":
    for argv in COMMANDS:
        print(f'    "{" ".join(argv)}":\n        "{_digest(argv)}",')
