"""Pins of the two raw random streams every output rests on.

G(n, p) graphs are drawn from PCG64's raw 64-bit words, and runs from the
doubles of ``random.Random(seed)`` that ``engine._batched_draws`` yields.
Both streams are fixed by numpy's RNG policy (NEP 19) and by CPython, so a
numpy, Python or platform change that moved either shows here first, at the
lowest layer, before any graph or CSV digest moves.
"""

import numpy as np
import pytest

from beepmis import engine

PCG64_WORDS = {
    0: [0xA30FEBCFD9C2825F, 0x4510BDF882D9D721, 0x0A7D3DA94ECDE8B8, 0x043B27B61342F01D],
    1: [0x8306BDF37922E4FF, 0xF35196BBC152A866, 0x24E7A4F608EC18CD, 0xF2DAB0AED2AC6FD2],
    2**64 - 1: [0xAE163A7A8C47568F, 0xD86659F5F3382359, 0x01E52B195BC2D24A, 0xE5026AAF19A22DB1],
}

RUN_DOUBLES = {
    0: ["0x1.b0580f98a7dbep-1", "0x1.84129978f9c1ap-1", "0x1.aeaa51052e978p-2", "0x1.092178fb945a6p-2"],
    1: ["0x1.132d8f91b7584p-3", "0x1.b1e2d5b3584f8p-1", "0x1.870d778409f13p-1", "0x1.0530d08f17f5cp-2"],
    2**64 - 1: ["0x1.659799fd7f980p-6", "0x1.5a35a94f333d8p-2", "0x1.b21c0274c09a4p-3",
                "0x1.3af1cb8614c45p-1"],
}


@pytest.mark.parametrize("seed", sorted(PCG64_WORDS))
def test_pcg64_raw_words(seed):
    assert np.random.PCG64(seed).random_raw(4).tolist() == PCG64_WORDS[seed]


@pytest.mark.parametrize("seed", sorted(RUN_DOUBLES))
def test_batched_draw_doubles(seed):
    assert [float.hex(x) for x in engine._batched_draws(seed)(4).tolist()] == RUN_DOUBLES[seed]
