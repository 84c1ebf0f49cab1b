"""Byte-level regression for the two-cost primal-dual solver.

Each market below is solved through ``capmatch solve --alg twocost --trace``
and the sha256 of the full stderr trace and of the solution JSON is compared
with a recorded value.  The small markets are additionally solved through the
library under the replay auditor of ``tests/oracles.py``, and the digest of
the events it saw and of the dual certificate (``y`` and ``z``) is compared
too.  The large markets are the 800-agent / 160-program two-cost markets of
the benchmark.

Print the table for a deliberate re-recording with::

    PYTHONPATH=src python tests/test_twocost_digests.py
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr
from pathlib import Path

import pytest

from capmatch.cli import main
from capmatch.generators import random_instance
from capmatch.model import serialize_instance

from oracles import audited_two_cost

COST_PAIRS = ((0, 1), (1, 3), (2, 7), (0, 5), (4, 4))


def _large_markets():
    for seed in range(6):
        yield f"large-{seed}", random_instance(800, 160, 4, (0,), (1, 3), seed=seed)


def _small_markets():
    rng = random.Random(271828)
    for i in range(12):
        n = rng.randint(5, 80)
        yield f"small-{i}", random_instance(n, max(1, n // 4), 4, (0,),
                                            COST_PAIRS[i % len(COST_PAIRS)],
                                            seed=rng.randrange(10**6))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digests(inst, tmp: Path) -> tuple[str, str]:
    """sha256 of the ``--trace`` stderr and of the solution JSON."""
    src, out = tmp / "market.cap", tmp / "solution.json"
    src.write_text(serialize_instance(inst))
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["solve", "--alg", "twocost", "--trace",
                     "--in", str(src), "--out", str(out)])
    assert code == 0
    return _sha(err.getvalue()), _sha(out.read_text())


def audited_digest(inst) -> str:
    """sha256 of the events and dual of a run under the replay auditor."""
    _, dual, auditor = audited_two_cost(inst)
    doc = {"trace": auditor.events, "y": dual.y,
           "z": sorted([*k, v] for k, v in dual.z.items())}
    return _sha(json.dumps(doc, sort_keys=True))


# name -> (trace sha256, solution sha256[, audited run sha256])
DIGESTS = {
    'large-0': (
        'f979c167d9362d3fbdecacb3ee2feb0c3a325f80641d800d1e23e19ce0c92b62',
        'ff82595e25b4e3168774a22dafeee9a9479511fc0fe7ebc720b6792e9ea41531',
    ),
    'large-1': (
        'c6ea346ee823574014b988bd0dd66bd336a5e578cf5280f653112bdd4f393f1f',
        '07d29e00820d67546dcbb44afd21f6579167ae151190e2786e19bd3d0c0ac90c',
    ),
    'large-2': (
        'cd89b13862303c75e4f6fe3fe5306978ae8cf060e311c9d50a3e81689a661519',
        'ae7e16af41a51ada7796911f4820fdec70cf8375d497135db622b3485c3038a9',
    ),
    'large-3': (
        'ddf145e66ff42eaae6eaf7771f31a8138669635525b9153d94c73965831f9b88',
        'e4ee601fbd38e62501a56eeb9ce8beed87fae475de3bb97b63a1787986a1b6f8',
    ),
    'large-4': (
        '1135fa3a0f61f26b7d51a5da90181e4ceb0e9d9e347df652a2a95d6c8c1ebc10',
        '58217fb3151c42eee50d8883bb6b1e7a8644cdb131a55b4f9cfabb44def7a6e9',
    ),
    'large-5': (
        '4773b46d41394993ea2bcb9890f8357f61be1078d9351382d9d34cd9e7144e62',
        '148320c60d2e15c0953b5af33a5457919f869b7a9d585de6cedeb61d5b55dbe0',
    ),
    'small-0': (
        '80126679ca93f77726ffea7000671ad380b079155774cab5c5b5dd562e95e68c',
        'f4441714291e8def492c7e7a07a7584b15afe30dd2ba8755d0a73b2769068016',
        'a0c998bffbc995ba831732c23335833054ecb9cf31dab55cccff7b98e34915ec',
    ),
    'small-1': (
        '9e7dcb9bd34d7c2d219b5a820a896b6f6daf17ce20a176bb97d08ac4ad702267',
        'be9359f69f0ff0eb7ae02c25ca5abad87062d1c659cd0f307e70067906658ec4',
        '320dbce7605ae12d629c622849a3a0c1864ae0d6659827414afbd504257349b7',
    ),
    'small-2': (
        '4b562529eeade9761a999d9a2c4dfe6aac4a851448d878d91d991f83685c46f7',
        'ba9d20a4983518d0a20783bb99f200c111468b3871d26aa70a5c765420379ee9',
        '34543a70df81f4e25dc3efa2f7390c749226545a1c114ad39532cd543cf54943',
    ),
    'small-3': (
        'f3c575865155899de373fd24ce6bd37f3d8283cc803d8008c4a7543e2e654e62',
        '7e4cca7c100e3a0c535cad7d11c3b1a88cded4a5fdcd003ba4f0cc51de5db9db',
        '974f51cfd681ded6b6dac758fc283e5925c8edc7c78b29051c7fdb830abe72c8',
    ),
    'small-4': (
        'c47d7bc29da6dd286106352688f93476d694c8101dcb216a634fc7c0eba1ce25',
        'ba29cc20225c0a6dd88af4837162040294e2cdbbb1318be82dd628c3fa0bbf10',
        '372e599f4992a00db00f38c0d13a764f64f7cdc5b6db2743f87d17c9a8a271a1',
    ),
    'small-5': (
        '300c5bb1f3b8e8e006e03b4ef86da240e4b0f9cdd245471bda0928f522aa68ad',
        'a9249a769013bbc61c46012dc59ded3a1191fc24f9bf09fed4444a572eeb3224',
        '7a0d356f3c448034c05681645b525607d5ddac99b3cdff706d2731e8e93a823d',
    ),
    'small-6': (
        '79aae81a8df1f69186987b962d80a2d7f86dc52c1834107ef44b11e980e011ea',
        'd3717d01c1521109808045f3d6dec89f4c26c49452341440df2749a0c64e3724',
        '2f638164c2575978ad09bbbe021b7c221558a03a594885ab2b53881e8962d60e',
    ),
    'small-7': (
        'e43e38b7f704ae3cc39579f3791bc70ad0538e2ca94b9f0cdaf3d838454c7f7b',
        'c51ea8ca3372aa77620023efc9c5480b637978ac5ff9cef84eea3987a8c11c33',
        '921252f8f7557de71c25e4cd947e503a0bee2c28f210ecc7f220a8f1dbc41b9f',
    ),
    'small-8': (
        '3aa018335f364f689325ba11b6d23b6c5a21a08978f714ef03e7ce894ecb2134',
        '6a84ccd7bce950615ad6e4b39be7aee830254f94d86171c3e5584df02155a253',
        'bb389f1871054fb3e8edd784029d9776bc95337544dd96eaf75477f5f1fdccf4',
    ),
    'small-9': (
        '3250924d5d4fcda19d21a840f2cee12fc3b56e58dc72585fc43eefd70b83516a',
        'd0b1e5f014b6e2c6253ba9ae8a87dc13708042d2f24adcc9c19284dc26055f7d',
        'f106705f81196e1850d5ee69f28155018b4cc1f2b6abd77591e893afefeb864a',
    ),
    'small-10': (
        'f129052d2cad7308c4595c94b770853eaf9725d219e1588f6705f3b7881d3958',
        'ab869e4965545ff1f0f215f5e5f9d7c2f648db9f9dae4f45bebdcd9f77f9d452',
        '2c017d453c84fe74382b7f0b84301c3488b76f57cad944aad708aac5f98e381b',
    ),
    'small-11': (
        '0971820c2666403651d828e8e6845725f5f05e54c7df44a2e83a15cbb8d4f302',
        '009de232daa87db809ca164b84106d6f44db61df7e48c91c3a77e99e8aacdd7c',
        '33a002fc6776a3dff851d94545906ac94676e52bd04a4e797f8365bdaa5fc333',
    ),
}


@pytest.mark.parametrize("name,inst", [*_large_markets(), *_small_markets()],
                         ids=lambda v: v if isinstance(v, str) else "")
def test_twocost_output_is_byte_identical(name, inst, tmp_path):
    expected = DIGESTS[name]
    assert cli_digests(inst, tmp_path) == expected[:2]
    if len(expected) > 2:
        assert audited_digest(inst) == expected[2]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, inst in [*_large_markets(), *_small_markets()]:
            row = cli_digests(inst, Path(tmp))
            if name.startswith("small"):
                row += (audited_digest(inst),)
            print(f"    {name!r}: (")
            for digest in row:
                print(f"        {digest!r},")
            print("    ),")
