"""Workload definitions: which programs each workload generates, and which
optimize pipelines it runs on them.

Every input derives from the benchmark seed alone.  Generator seeds come
from ``random.Random(f"{workload}:{seed}")``, so the same seed always gives
the same programs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from nestopt.generators import generate_resnet_analog, generate_wavenet_analog
from nestopt.textual import print_program

DME = ("dme", ("--pass", "dme"))
DME_GLOBAL = ("dme_global", ("--pass", "dme", "--pass", "bankmap", "--mode", "global"))
GLOBAL = ("global", ("--pass", "bankmap", "--mode", "global"))
LOCAL = ("local", ("--pass", "bankmap", "--mode", "local"))

# Trials per verify; criterion 3 of the acceptance suite uses the same count.
TRIALS = 5

# dme_chain: several chains, so that one chain's shape (where its colliders
# sit, how large its tensors grow) does not decide the figures; 100 pairs
# each, so that a round is short enough to repeat several times in a run.
CHAINS = 12
CHAIN_PAIRS = 100
CHAIN_NON_INVERTIBLE = CHAIN_PAIRS // 10

# bank_blocks: one wide block program.
BLOCKS = 64
BLOCK_TRANSPOSES = 3
BLOCK_SIDE = 8

# oracle_corpus: criterion-3-shaped programs.  Every shape appears a fixed
# number of times, so the seed changes the programs but not their sizes.
CORPUS_WAVENET = [(pairs, non_inv) for pairs in range(2, 7) for non_inv in (0, 1)] * 2
CORPUS_RESNET = [(blocks, transposes) for blocks in range(1, 4) for transposes in range(4)]


@dataclass(frozen=True)
class Item:
    """One input program and the pipelines the workload runs on it."""

    name: str
    generator: str
    args: tuple[int, ...]
    seed: int
    pipelines: tuple[tuple[str, tuple[str, ...]], ...]
    text: str

    def params(self) -> dict:
        return {
            "name": self.name,
            "generator": self.generator,
            "args": list(self.args),
            "seed": self.seed,
            "pipelines": [label for label, _ in self.pipelines],
        }


def _wavenet(name, rng, pairs, non_inv, pipelines) -> Item:
    seed = rng.randrange(2**31)
    text = print_program(generate_wavenet_analog(pairs, non_inv, seed))
    return Item(name, "wavenet", (pairs, non_inv), seed, pipelines, text)


def _resnet(name, rng, blocks, transposes, side, pipelines) -> Item:
    """The resnet generator's only random choice is the tile side (4 or 8);
    draw generator seeds until it is ``side``, so the workload's size is
    fixed while its seeds still come from the benchmark seed."""
    while True:
        seed = rng.randrange(2**31)
        program = generate_resnet_analog(blocks, transposes, seed)
        if program.tensors[0].shape[0] == side:
            text = print_program(program)
            return Item(name, "resnet", (blocks, transposes, side), seed, pipelines, text)


def make_items(workload: str, seed: int) -> list[Item]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dme_chain":
        return [
            _wavenet(f"chain{k}", rng, CHAIN_PAIRS, CHAIN_NON_INVERTIBLE, (DME,))
            for k in range(CHAINS)
        ]
    if workload == "bank_blocks":
        return [_resnet("blocks", rng, BLOCKS, BLOCK_TRANSPOSES, BLOCK_SIDE, (DME_GLOBAL, GLOBAL, LOCAL))]
    if workload == "oracle_corpus":
        pipelines = (DME, GLOBAL, LOCAL)
        items = [
            _wavenet(f"wavenet{k}", rng, pairs, non_inv, pipelines)
            for k, (pairs, non_inv) in enumerate(CORPUS_WAVENET)
        ]
        items += [
            _resnet(f"resnet{k}s{side}", rng, blocks, transposes, side, pipelines)
            for k, (blocks, transposes) in enumerate(CORPUS_RESNET)
            for side in (4, 8)
        ]
        return items
    raise KeyError(workload)
