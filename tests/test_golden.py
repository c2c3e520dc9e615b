"""Golden reports: the sha256 of every bundled expression's report.

Each digest is of the report as `otcomp check` prints it, with elapsed times
masked.  A change that must leave every verdict, count, witness and refusal
as it is keeps these digests; one that changes a report on purpose updates
the digest it changes and says why.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import otcomp
from otcomp.bounds import DEFAULT_BOUNDS
from otcomp.checker import check_consistency, check_cp1, check_cp2
from otcomp.errors import BoundsExceeded
from otcomp.registry import build
from otcomp.tower import TOWER_BOUNDS, build_document_tower


CHECKS = {"consistency": check_consistency, "cp1": check_cp1, "cp2": check_cp2}

# (expression, check) -> sha256 of the masked report at DEFAULT_BOUNDS.  CP1
# and CP2 alone are left out where the consistency check already takes a
# second.
DIGESTS = {
    ("cchar", "consistency"): "8107e26c5150987b69f8c1fa6f47f0748f91454a97420efa43effc006937e23b",
    ("cchar", "cp1"): "e4aa9bbaf23d866f493f854b0946e634b76d7378d6a33409b9781c2aa9070f73",
    ("cchar", "cp2"): "e988633d0c2ab42d5c1d60ca73e6e6b85e6ca0d2816137698001040f0e8b5ad4",
    ("cnat", "consistency"): "2f2075106bc50e2a0e66bfc99749a441b62012fee77e480ca66ec1ab4868f713",
    ("cnat", "cp1"): "57297900b636ee9650749fc8a932823ed4cc907e6012c70f8674cbf8af4b01d6",
    ("cnat", "cp2"): "ac0d3739dc471173424ed9c784db8c045d03f3ac1a1fdc937b604382241de2e6",
    ("ccolor", "consistency"): "8107e26c5150987b69f8c1fa6f47f0748f91454a97420efa43effc006937e23b",
    ("ccolor", "cp1"): "e4aa9bbaf23d866f493f854b0946e634b76d7378d6a33409b9781c2aa9070f73",
    ("ccolor", "cp2"): "e988633d0c2ab42d5c1d60ca73e6e6b85e6ca0d2816137698001040f0e8b5ad4",
    ("set-literal", "consistency"):
        "cb77b193e0a30502faf65590aaf03e0b24c5a3a81293a6a70c47593872958c38",
    ("set-literal", "cp1"): "623b89829cd2eeed6fa60f8bd8545f5dff2f268d211d13029175c29d7f39a5fc",
    ("set-literal", "cp2"): "ac0d3739dc471173424ed9c784db8c045d03f3ac1a1fdc937b604382241de2e6",
    # CP2 skips the `set-guarded` triples that no state enables together.
    ("set-guarded", "consistency"):
        "6ee44b9ce0b162b89247d769b9e4a45c1d7ef222f7bc982c60a9685fa40ed755",
    ("set-guarded", "cp1"): "85ece54721e41c8be1096178799a69a348c68b22248cd9bc9fdb4eeb6fe9ad21",
    ("set-guarded", "cp2"): "042a6238930080f8b9a347f4d35770e3148677abad959b3e0c55805d76f1fe96",
    ("string", "consistency"): "f6d59c545bc0604ca70aef95d41c500c91bf60b90daf439aa3fdc160d3900215",
    ("string", "cp1"): "95012d2eb30e8b64f550ae225ebbf2e6ebacc4400403ffbe3f10cdd8aa1b9023",
    ("string", "cp2"): "6f147adb468b55df68504049a6393bdae420d1b666fb329e560f363dbe6d7f6d",
    ("set-guarded[cchar]", "consistency"):
        "6a2c4386372d0ee63b4a4477b1641333a7fec6bdaaf6a4f3cb0d27a32e6414de",
    ("set-guarded[cchar]", "cp1"):
        "9ed23d610e157635959a2fd4924d095a512c9ab90c5573cc2a8f4b085d03820e",
    ("set-guarded[cchar]", "cp2"):
        "25be6c366ea8c59c6d24f18ca1831ebe06c2179dd7726a0f43c37872a6c923d5",
    ("set-literal[cchar]", "consistency"):
        "3a7deb389103fb7b417f9238ec7dcc3623807ee9b15f0238c142d0331c74db02",
    ("set-literal[cchar]", "cp1"):
        "0a88f98462f226ad5dcc08ef6d56b312b794008ab10e496d411edb51d70c1847",
    ("set-literal[cchar]", "cp2"):
        "1bd5623b6e06bc56c7fb6c60b77bf8acad470a8e20bf736af962e8a41a975e9d",
    ("string[cchar]", "consistency"):
        "26da2b1f734486c063a2aebbb136402879b2f02c4d7ddace7054d901e8a66f1e",
    ("cchar (+) cnat (+) ccolor", "consistency"):
        "f452f3892bbcc5aa8081f2479a31ca465296f6f0c66938025247b353b00678b2",
    ("cchar (+) cnat (+) ccolor", "cp1"):
        "cd4851b83bfdb2a927207a266f5cda0affbd48d75301b6faca3fe06601dddbf1",
    ("cchar (+) cnat (+) ccolor", "cp2"):
        "668cb638a915f320e605494ff7b049df5dbf9dd9e3edad0949ccdf72b65d8ac8",
    ("string[cchar] (+) cnat", "consistency"):
        "758c8066ad0bf39437d3d31a4ff7bef15b2916218b75ca0a3b2114ce3898fb78",
}

# The document tower's levels at TOWER_BOUNDS.
TOWER_DIGESTS = {
    ("fchar", "consistency"): "ffd70706e0b01f12d9accc434f175875dfb71837172e8d307ad6296798fb51bf",
    ("fchar", "cp1"): "dad965df2e9c996cf287ab2d7ee8b8cd3f26d7abb899f2aa026cf59562e30b30",
    ("fchar", "cp2"): "4f44679f3be167438211b196a64b22e090bf4bebb69cfe1e266a999675e30d2a",
    ("word", "consistency"): "f7b594580d441dd3a77ee1d1a8ebb2b528683af392893da5167ac5cc4976f104",
    ("word", "cp2"): "fb058df3a35c7522c77e873124e5d5533316a89ec14e538685d0afe14034a356",
}

REFUSALS = {
    ("string[string]", "consistency"): "estimated 7747099200 cases exceeds ceiling 10000000",
    ("string[string]", "cp1"): "estimated 8734813216 cases exceeds ceiling 10000000",
    ("string[string]", "cp2"): "estimated 1801741537 cases exceeds ceiling 10000000",
}

TOWER_REFUSALS = {
    ("fword", "consistency"): "estimated 31242204 cases exceeds ceiling 10000000",
    ("fword", "cp1"): "estimated 31242204 cases exceeds ceiling 10000000",
}

# sha256 of the consistency report's `witnesses` list alone, taken before
# CP2 skipped the triples no state enables together: the skip moved `cases`
# and emptied `unrealizable`, and must drop no realizable failing triple.
WITNESS_DIGESTS = {
    "string[cchar]": "43106ec79007e5bcf8f94d4216d26202dddb3e0946fe2d282074dff7d693cf82",
    "string[cchar] (+) cnat": "d9abe089beb678d45942e6c73d21ff86c6d16d935ff399b3f162be11edba228b",
}


def _digest(check, c, b):
    text = json.dumps(CHECKS[check](c, b).to_json(mask_elapsed=True), indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def tower():
    return build_document_tower()


@pytest.mark.parametrize("expr, check", DIGESTS)
def test_report_digest(expr, check):
    assert _digest(check, build(expr), DEFAULT_BOUNDS) == DIGESTS[expr, check]


@pytest.mark.parametrize("level, check", TOWER_DIGESTS)
def test_tower_report_digest(tower, level, check):
    assert _digest(check, tower[level], TOWER_BOUNDS) == TOWER_DIGESTS[level, check]


@pytest.mark.parametrize("expr, check", REFUSALS)
def test_refusal_text(expr, check):
    with pytest.raises(BoundsExceeded) as exc:
        CHECKS[check](build(expr), DEFAULT_BOUNDS)
    assert str(exc.value) == REFUSALS[expr, check]


@pytest.mark.parametrize("level, check", TOWER_REFUSALS)
def test_tower_refusal_text(tower, level, check):
    with pytest.raises(BoundsExceeded) as exc:
        CHECKS[check](tower[level], TOWER_BOUNDS)
    assert str(exc.value) == TOWER_REFUSALS[level, check]


@pytest.mark.parametrize("expr", WITNESS_DIGESTS)
def test_no_realizable_witness_is_skipped(expr):
    rep = check_consistency(build(expr))
    assert len(rep.witnesses) == 384 and not rep.unrealizable
    text = json.dumps(rep.to_json(mask_elapsed=True)["witnesses"], indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == WITNESS_DIGESTS[expr]


def _largest_part(rep):
    """The most cases a part of a consistency report sweeps: its CP2 cases,
    or its CP1 examined pairs and states."""
    return max(p.cases if p.property.startswith("CP2") else p.examined for p in rep.parts)


@pytest.mark.parametrize("expr", [e for e, check in DIGESTS if check == "consistency"]
                         + ["tower fchar"])
def test_each_estimate_is_the_count_it_guards(tower, expr):
    # A check runs at a ceiling of its largest part's count, and is refused,
    # naming that count, at one less: no estimate counts a case, such as a
    # pair that one site issues, that its part does not sweep.
    c, b = ((tower["fchar"], TOWER_BOUNDS) if expr == "tower fchar"
            else (build(expr), DEFAULT_BOUNDS))
    largest = _largest_part(check_consistency(c, b))
    assert _largest_part(check_consistency(c, b.with_(max_cases=largest))) == largest
    with pytest.raises(BoundsExceeded) as exc:
        check_consistency(c, b.with_(max_cases=largest - 1))
    assert str(exc.value) == f"estimated {largest} cases exceeds ceiling {largest - 1}"


# Checks whose reports hold sets of values, whose iteration order follows
# their hashes.
SEEDED = [("set-guarded[cchar]", "consistency"), ("set-literal[cchar]", "consistency"),
          ("cchar (+) cnat (+) ccolor", "cp1")]


@pytest.mark.parametrize("seed", ["0", "12345"])
def test_report_digests_hold_under_any_hash_seed(seed):
    # A value hashes as its tuple: its class's id and its fields, whose str
    # hashes change with PYTHONHASHSEED.  No report may follow that order.
    path = os.pathsep.join([str(Path(otcomp.__file__).parent.parent), str(Path(__file__).parent)])
    code = ("import test_golden as g; "
            "print([k for k in g.SEEDED if g._digest(k[1], g.build(k[0]), g.DEFAULT_BOUNDS)"
            " != g.DIGESTS[k]])")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
