"""Golden CLI outputs: the sha256 of the bytes each command writes.

The digests pin every printed fit, every simulated draw and every
formatted cell of the commands below, so a refactor that claims to keep
the outputs bit for bit is checked against them.  ``estimate --in``
reads the ``simulate`` output of the same config and seed; the
``detect`` digest covers its report and then its residual table.
"""

import hashlib

import pytest

from climex.cli import main

_PROTOCOLS = {"rtt": "", "climex": "protocol = climex\n"}

# the 200-ping ps-noise random-injection config of the detection tests
_ATTACK = ("n_pings = 200\nattack = random\nattack_n = 40\n"
           "rho_ae_m = 3.5\nsigma_j_s = 1e-12\nsigma_c_s = 2e-12\n"
           "delta0_s = 2e-8\n")


def _cases():
    cases = {}
    for protocol, config in _PROTOCOLS.items():
        for seed in ("12345", "1", "7"):
            for command in ("simulate", "estimate", "estimate --in"):
                name = f"{command.replace(' --', '-')}-{protocol}-{seed}"
                cases[name] = (config, command.split() + ["--seed", seed])
    cases["detect-residuals"] = (_ATTACK, ["detect", "--residuals"])
    cases["budget"] = ("", ["budget"])
    cases["sweep"] = ("", ["sweep", "--values=-1000,-3.3,1000", "--trials",
                           "2", "--seed", "99999999999999999999"])
    return cases


_CASES = _cases()

GOLDEN = {
    "budget":
        "a1592d0ab87d56583686d873516c251ab5e66cfdc9dba7197bde74eedc94f0b9",
    "detect-residuals":
        "f82202568d5998b616b8e06fd3ba4ebb9639cc6f96e6bba73c76e3b3ca1d2d0a",
    "estimate-climex-1":
        "e71e44cb21669cf3807909502bdb55f2a4ed3ccb849e5cec6da624c89b8e898b",
    "estimate-climex-12345":
        "79b458ec20fd07d225657ca0e1e26189cdb48be0e498513ecec816e43daa0cb9",
    "estimate-climex-7":
        "8132803471048ac83d29e102f970501431e16982446823516da8bf39935aabe5",
    "estimate-in-climex-1":
        "e71e44cb21669cf3807909502bdb55f2a4ed3ccb849e5cec6da624c89b8e898b",
    "estimate-in-climex-12345":
        "359a8396ad9b52fc34628f12cd16f8074c953172109f7047431e3621c7cdd0e5",
    "estimate-in-climex-7":
        "8da6cb1f12de6ab1182c006ffc37233d6bca2ef4002abc62a07f7b9269930ee3",
    "estimate-in-rtt-1":
        "7aac94558d533de736fa3c314eb63e3efcac5d43e42b6c7172a3c1e91ab1cd63",
    "estimate-in-rtt-12345":
        "70339b314e877de43286a07ad8297ff3931042e26d0fbd6a89108fa97a135231",
    "estimate-in-rtt-7":
        "957c4382b4c223eb7800cfea4ba57d837a1d1a7faf72318e34138aba2906a122",
    "estimate-rtt-1":
        "4019eac5de76e7b6b7c9a16b2726d248cc6c1fc8989ac96430ac361d0e947436",
    "estimate-rtt-12345":
        "510e4f484cefb9465502523fab6464053b18783c50a177703a1b56520741405d",
    "estimate-rtt-7":
        "7d5a5572a4fa00c089bd76ec4ff78463488aa86d406fa898ab3f50d6ddb0d6b5",
    "simulate-climex-1":
        "ef29feeba16f3604abfd6c906591e0ef82c1b8e8e4629efa1caf65bc05d798de",
    "simulate-climex-12345":
        "ca5c6ee01459f5552f81204f8dbc065f5c5fb5c5bd74875f6a1463ce1f8ec617",
    "simulate-climex-7":
        "d33934ba57d533bc0b4b726f50d79bf3e901eedeb2ddcc20b501fde189c18159",
    "simulate-rtt-1":
        "50b065f9dac3b3e7e64ef8d1139746a9d94e19982e76870062f1b50007db9237",
    "simulate-rtt-12345":
        "2cd6db2a5bb35fec69fada867bf408658039e578c1a8a390f0c5a86af3db16b5",
    "simulate-rtt-7":
        "debe7f6980580b421a1d45f4be9d93f315aad51201f8eb4b081e775a7fe10b35",
    "sweep":
        "6176998c7b99e7a02aa068f88f5a7104b86178168a787e2e5657f23c58d5988d",
}


def _output_bytes(tmp_path, config, argv) -> bytes:
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text(config)
    out, side = tmp_path / "out.txt", tmp_path / "side.csv"
    argv = list(argv)
    for flag in ("--in", "--residuals"):
        if flag in argv:
            argv.insert(argv.index(flag) + 1, str(side))
    if "--in" in argv:
        seed = argv[argv.index("--seed") + 1]
        assert main(["simulate", "--config", str(cfgp), "--seed", seed,
                     "--out", str(side)]) == 0
    assert main(argv + ["--config", str(cfgp), "--out", str(out)]) == 0
    data = out.read_bytes()
    if "--residuals" in argv:
        data += side.read_bytes()
    return data


def test_golden_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(_CASES)


@pytest.mark.parametrize("name", sorted(_CASES))
def test_cli_output_matches_its_golden_digest(tmp_path, name):
    data = _output_bytes(tmp_path, *_CASES[name])
    assert hashlib.sha256(data).hexdigest() == GOLDEN[name]
