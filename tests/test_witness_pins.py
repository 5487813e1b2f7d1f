"""Witness bytes pinned per builder path.

Each case builds a witness log from a seeded `genmod` module and compares
the sha256 of its serialized payload, `documents.dumps(witness_payload(log))`,
with a recorded digest.  The cases cover folds at amplitudes 2 to 8 (the
pad, the two-degree round, its middle-degree sweep, which has two or more
degrees from amplitude 6 on, and the parity jump) and `amplitude_reduce`
with one, two and three potentials, so any change to the bytes a reduction
builder emits shows up here, not only at the amplitudes the CLI transcript
reaches.

Re-record (only after an intended change of witness bytes) with

    PYTHONPATH=src python tests/test_witness_pins.py
"""

import hashlib
import random

import pytest

import genmod
from koszulmf import documents
from koszulmf.reduce import amplitude_reduce, fold_with_witness, validate_log

# (kind, parameter, seed): fold cases name the input amplitude, reduction
# cases the number of potentials.
FOLD_SEEDS = {
    2: (6, 8, 11, 12, 22, 26),
    3: (0, 1, 4, 5, 7, 10),
    4: (2, 3, 9, 14, 18, 21),
    5: (15, 25, 56, 62, 84, 91),
    6: (7, 18, 41),
    7: (2, 14, 15),
    8: (3, 17, 25),
}
REDUCE_SEEDS = {
    1: (0, 1, 2, 3, 15, 18),
    2: (0, 1, 2, 4, 17, 18),
    3: (2, 5, 7, 8, 9, 15),
}

DIGESTS = {
    "fold-2-6": "147d530e19144f136b908cfa827b4105cd9cc1d176d09d5c32150d78e1ebd019",
    "fold-2-8": "b134b0862075ee4b692cefc9dd16549de8d348530256346d4a17787b25965042",
    "fold-2-11": "9e2bc236edaa2009c5f15da4296c32345af50fd9b310f17051876d5baa34cd41",
    "fold-2-12": "6212f93c7871f52f6b6389a06b963152ce054612527c3712e3f2dc85a51eefd0",
    "fold-2-22": "fd4aaf1126b84f96efbdafe73e593aff9966df9eb8b1f236ecee1c8bde5332fd",
    "fold-2-26": "6f3973a0fc3a9b940349df3839514ad6240ce4d1f49f0f9221d20496a6f8e732",
    "fold-3-0": "640793f9ad782d152197f8129e1065141ec6fcbc0e01492fd93cf6ae7030ccd7",
    "fold-3-1": "a03a2cf1e3135c15a034c43fcc18ec248adef0c0bbc90cb1eb41753b7c2750df",
    "fold-3-4": "ae11ede484b2b8a2e66f7b56d073f1d4dacc9d4ed24407f8ec831a626a8fe5e5",
    "fold-3-5": "ab9a319d267c10a7603361b97a230d259c33327ef808c4c06c71a52429caefde",
    "fold-3-7": "4b7de9b3d3d54a270b6c9eb9ab2f89fb2264478cdccac2325c1d9040e1befb78",
    "fold-3-10": "aac874cf996117b3693efc19d813d8e605d4f36e604dfd1ea0012b15a6cca874",
    "fold-4-2": "c4e1a0422536ecac5f7a9289933af635f026d31d4fe25308922619f8fa119d3b",
    "fold-4-3": "44547cc6233dece90142894fb091228279ab2438949acd5408a0c5098bddf487",
    "fold-4-9": "278ca51da05fe63dcd1a0850c549aeeb2c80cad44a01a1ef512de4c5e93dba48",
    "fold-4-14": "98519283a88e4fae8c8735631dccc0b54a3f31ab7c97b88988809fbac5f94bed",
    "fold-4-18": "f4d0b8f59c60707ad15b2996316cb00d868b9e1ff0faad36cdd18bfd93a40c9d",
    "fold-4-21": "6b5afefb5f810ab7c32a2fd5904c474038f251c34cedd1746e8666d32c58605d",
    "fold-5-15": "de1a0c92f56d18cc5d1a09215b2cdb96c51be722a608684a0374c49add5f27c7",
    "fold-5-25": "290a07047244cdcf78bf618a1f09e9e4381a358b6de0db6eb297e3f6e628c5af",
    "fold-5-56": "f6f017bc2685079184aa70dba2627d95dd3b6866f0e68c17cff7a3e5232527b5",
    "fold-5-62": "afa8843a56ae40d63c585997a1b14ed460e5fc857989967e9661f1d5d4839c89",
    "fold-5-84": "c6388de9451e71ef5ee596f86312d250575092467777611ba8edefe139be1553",
    "fold-5-91": "bd25fd0362073fc5598536d68aaf836151c160ca68612157e69bca53b0cdf646",
    "fold-6-7": "3d0d9eda030f2a9323de79ddd5cf181e715f7d3a34e4652c8679c54cae61e773",
    "fold-6-18": "14ffceca91e035dfbda67ddb9700a8ea59f46bd23349e79b181891d2203d9a22",
    "fold-6-41": "ee43044927dd0d58123a42ee83cc6658ea7baacffaea4ee37669c4f6d28cf6d7",
    "fold-7-2": "5810e52298de0d9add599e800145a4ea07539f8bdca2aedc0b309c4db734487d",
    "fold-7-14": "87095fb4a22a6c96c41af34a9b095cd25b99aa6b3e0e73df841f2654fa04fd67",
    "fold-7-15": "47548c5d6e0b08ec0ce10e7790ea713a543ae33f128650847198d1bddea3a32c",
    "fold-8-3": "6e892d4d1d084fd1a373d4268e303ba93d26bede40b5b1f98c48f1f96e5b2c08",
    "fold-8-17": "288031b0ad797208e9ecc34acac30ba1e996ca4150f6ecc19d7bbdb2c4d76389",
    "fold-8-25": "0f91e53a93899bed049ad495353b1c5cfa668fe23bcf2a1b57aaeed21d2f40d0",
    "reduce-1-0": "9fa1813f5fea5350b20a1801d6c15807ebb86a841ecda5aec950a27b2feaf880",
    "reduce-1-1": "e2bc80722e8ca94dcdafc3086e653f955c81314c3c84f31012b71d8ba263fc1b",
    "reduce-1-2": "02839de0471a3f5369e1c217960d52bafd0d27b3a39c18933a8fe18c24a29228",
    "reduce-1-3": "76af1bba00e034a9555720a62e8e39f3a13622c9160d9e04a65ac2fb0ba6d852",
    "reduce-1-15": "463d847ae2c4fb370dfc3677ebe6767dd0021041194d69cedb39f48e63ad6445",
    "reduce-1-18": "8b06c49f571ce9d926d1628a2943ba27f1bd295746f4110a2abb10e8be30acef",
    "reduce-2-0": "af6ede98edb2a028e446af74ebbd237928e99e06644876a751dc5e485a274259",
    "reduce-2-1": "9cfaa1ee5df5e0721db60d67ee3481508eaa8ec7dadd190350a7296674932278",
    "reduce-2-2": "cae5af8d49e4586f27699e677fd64abca6037d3dfa85c0c52e308cf9b78576bb",
    "reduce-2-4": "2b0eb0b01a29d0cee6b3cf7c13c709f8ae481ee76b04ed13b72f096b8ca0a374",
    "reduce-2-17": "15bc4ffe62e49095d82b6e5862795bcdca446f357d091e11d268c873098f59a9",
    "reduce-2-18": "f76d5744dcfb1dafd4b2d1f00453f6bd80bbbef8a652c5072e3308c54562191d",
    "reduce-3-2": "aecae242a6e9832a51dc739ff1b6c54e50b1ee22d6a2ab095c77109593f357aa",
    "reduce-3-5": "2dc3381c18a07b2b1fe83c7fd44557c169e0f2b72ed01b0bfc12bb4827c3cc32",
    "reduce-3-7": "6b850aa82dd4074289a48836d51c9febd212c83d6f941463ebe41039374a224a",
    "reduce-3-8": "f37a55de2919958366ca4cf1c88ca7fdb9e889825798656d52b18b2978d7e34f",
    "reduce-3-9": "2f5aafdd061ef724366b04a2a9a18a6f57b08fdd7d0692c8aa74de6039a2fff0",
    "reduce-3-15": "cfdfe2c563058d3f5c80724d0d9950e2b3222906b9fb0ee444cf306540eb628b",
}


def _module(kind, param, seed):
    rng = random.Random(seed)
    if kind == "fold" and param <= 5:
        return genmod.random_fold_input(rng)
    if kind == "fold":
        return genmod.random_module(rng, n=1, max_rank=2, max_amp=6)
    return genmod.random_module(rng, n=param)


def _log(kind, module):
    if kind == "fold":
        return fold_with_witness(module)[1]
    return amplitude_reduce(module)[1]


def _digest(log):
    text = documents.dumps(documents.witness_payload(log))
    return hashlib.sha256(text.encode()).hexdigest()


def _cases():
    for amp, seeds in FOLD_SEEDS.items():
        for seed in seeds:
            yield ("fold", amp, seed)
    for n, seeds in REDUCE_SEEDS.items():
        for seed in seeds:
            yield ("reduce", n, seed)


@pytest.mark.parametrize("kind,param,seed", list(_cases()))
def test_witness_bytes_are_pinned(kind, param, seed):
    m = _module(kind, param, seed)
    if kind == "fold":
        assert m.amplitude == param
    else:
        assert m.n == param and m.amplitude > param + 1
    log = _log(kind, m)
    assert validate_log(log) == []
    assert _digest(log) == DIGESTS[f"{kind}-{param}-{seed}"]


def test_a_move_past_the_size_budget_is_refused():
    # this module's first step takes its total rank from 64 to 156, and the
    # second step's counit cone, 9 * 156, is past MAX_TOTAL_RANK: its log
    # would hold objects a witness log is not read with
    m = _module("reduce", 3, 3)
    with pytest.raises(ValueError, match="cone of total rank 1404, past 1000"):
        amplitude_reduce(m)


if __name__ == "__main__":
    for kind, param, seed in _cases():
        log = _log(kind, _module(kind, param, seed))
        print(f'    "{kind}-{param}-{seed}": "{_digest(log)}",')
