"""Pin the synthetic instruction stream with committed SHA-256 digests.

Each digest covers every ``Instruction.__slots__`` value of every
instruction the generators emit for one profile (all seeds of that profile
feed one hash).  Any change to the order or the form of a random draw moves
at least one digest, so the test fails on a refactor that is not
stream-identical.  Because the fused generator inlines CPython's
``random.Random`` methods (for example the ``getrandbits`` rejection loop
behind ``randrange``), running this test on every supported Python version
also checks that those inlined forms still match the library.

An intentional change to the stream is a model change: regenerate the
golden corpus (``tests/regression/regenerate_golden.py``) and these digests
(run this file as a script: ``PYTHONPATH=src python
tests/trace/test_stream_digest.py``) and say so in the commit.
"""

from __future__ import annotations

import hashlib
import marshal
from operator import attrgetter

import pytest

from repro.common.isa import Instruction, InstructionClass, SyncKind
from repro.trace.multithreaded import generate_multithreaded_workload
from repro.trace.profiles import (
    parsec_benchmark_names,
    parsec_profile,
    spec_benchmark_names,
    spec_profile,
)
from repro.trace.synthetic import generate_trace
from repro.trace.workloads import homogeneous_multiprogram_workload

SPEC_SEEDS = (0, 1, 7)
SPEC_INSTRUCTIONS = 12_000
PARSEC_SEEDS = (0, 3)
PARSEC_THREADS = 4
PARSEC_INSTRUCTIONS = 8_000
MULTIPROGRAM_CASE = "mcf x3"

_ENUM_SLOTS = {"klass": InstructionClass, "sync": SyncKind}


def _update(digest, instructions) -> None:
    """Feed every slot of ``instructions`` into ``digest``, column by column.

    Columns are serialized with marshal format 2, which has no
    back-references, encodes each value's exact built-in type (a bool
    turning into 0/1 moves the digest) and rejects subclasses.  Enum
    columns are checked to hold enum members and hashed as their values.
    """
    for slot in Instruction.__slots__:
        column = list(map(attrgetter(slot), instructions))
        enum_type = _ENUM_SLOTS.get(slot)
        if enum_type is not None:
            assert set(map(type, column)) == {enum_type}, slot
            column = list(map(int, column))
        digest.update(slot.encode())
        digest.update(marshal.dumps(column, 2))


def _traces(case: str):
    """Yield every trace of one digest case."""
    if case == MULTIPROGRAM_CASE:
        yield from homogeneous_multiprogram_workload("mcf", 3, instructions=6_000, seed=5).traces
    elif case in spec_benchmark_names():
        for seed in SPEC_SEEDS:
            yield generate_trace(spec_profile(case), num_instructions=SPEC_INSTRUCTIONS, seed=seed)
    else:
        for seed in PARSEC_SEEDS:
            yield from generate_multithreaded_workload(
                parsec_profile(case), PARSEC_THREADS,
                total_instructions=PARSEC_INSTRUCTIONS, seed=seed,
            ).traces


def stream_digest(case: str) -> str:
    """SHA-256 over every instruction slot of every trace of ``case``."""
    digest = hashlib.sha256()
    for trace in _traces(case):
        _update(digest, list(trace))
    return digest.hexdigest()


CASES = spec_benchmark_names() + parsec_benchmark_names() + [MULTIPROGRAM_CASE]

DIGESTS = {
    'bzip2': '5f6e75be1bd7f72ac7a597bf72d1d2c74d83b051daac7be296de36a323d87979',
    'crafty': '70021c90177331af5ba3a03ca453015996fb8fba60ea63e70b09ae7c34eeb75e',
    'eon': 'f299a7f0d244166cc6b21662906e9605ee90496c5ae6ca4c23fbfaac07ae123d',
    'gap': 'b4f78c7e877086b6a81c46765ea3a9c441d64447301d4832b8c7014d0b55d750',
    'gcc': 'e8bd4b7ed756bf6ef991c1e337470a425cb68d8d1272695772bcf296cba16b80',
    'gzip': '9ad294f2d13a974adefd0fff49f21891d1d7282eb3f5570f14525c1e027bd3de',
    'mcf': 'a8e0894d2d69f5a623259335b7d5a51130c8d1938b2309a3c13fcb8c62a09df0',
    'parser': 'dd8d0a17ffd110f31cff3e086e44cf62813e2692fae1358045d613c40d82b1ba',
    'perlbmk': 'b4e44f509459e3720f63b92d13d20a9aaa48cb98417ac4243868e6717bcc948e',
    'twolf': '88faebdfe6b14b6fcfb2b215e50826c31d7d89b3b7a108396c98f3fd57f45203',
    'vortex': 'd8ce8eb5e6c8d7133645ec20a4d891dd901da2d99497b5d7d73a5d30a27a23e1',
    'vpr': 'c02bf7e62c0490bfd1cc1e32c23ac0f4762d16873b46908572947918bd6353f3',
    'ammp': 'fc34caaa5fea95dc02732a44eb51949fb0720400ba549e5bdcfde5e4dbf985aa',
    'applu': '58e740156c106062f4edde6a3d6a9e46ee287eaa1e44b81aabe5d51b31249e5d',
    'apsi': 'b6ba7b48665120576f4bf6af4d9e8d209dea423662e634c632a62c102a000eb9',
    'art': '4b0d50b37c0e7b3444a088dca9938daa7ae8ea8b94729ec12daca4c39d620b8e',
    'equake': '15afcf054e1a36c7cfa009388c1b8ea266e6d0cfe1d1889b2bc776ec083936ef',
    'facerec': '4544f331637f88e80a4fa1f50e92d430fcbcced4fb49d7aa6cbd66d7afbfe50a',
    'fma3d': 'eee6dcba194764cba0fe98f0c95a816e6a836f3a4ea05ffd795bea8327d12323',
    'galgel': '9ffe21c3ded93affbb9272f11b87622fc310a539626a39b3758e5faddff43ad3',
    'lucas': '44a4a9e7e5bdb6d1c0c11ad06ccad668f9f1ad44a5f96fb15b147d79666a6b80',
    'mesa': 'c30028ccca398b592e2274fcbecdcbfb0107ef1a797d16871165c54c39f0c100',
    'mgrid': 'a154b3a724a5b1f8ef08f426f3a4c54898850dbcf56df52df848881987ab0ea6',
    'sixtrack': '4c480b5d1614abc366b4de60259a1b20339c48b0c6b3c49b96fe4731484adb70',
    'swim': 'e15f2ec7f752da21ea1c058774da4a18ac46f112df15d7a24a816daf9baa9f65',
    'wupwise': '8c406a70f292d5237a450c25b44f40ef28f86ba518f08badacfb3818bcfa2755',
    'blackscholes': '088a300f048225f2ed6edbf1b31735a54d35c72b41d6f94608e250b57c0affa4',
    'bodytrack': 'd17e2e2ea93694751e4d86d0f279a138e59cc682fd27fa25d8711968c6876c5d',
    'canneal': '16b664ec1656898fd3b03872989fd49a2d326e17bab242403f6eab5d2987b9ff',
    'dedup': 'fa68b7b8f24521913c2303c1dfaf8c97be8d742ae9d56573d82bf29642e43379',
    'fluidanimate': 'aa527e389b899567433f7a27dc7538d39b76bc15ea12a811a3628ca03a3db284',
    'streamcluster': '03dc09ca839bbb7175f65037c5871072978a331c272a37f8de8f8cd4307b31c2',
    'swaptions': '246d281356db67e8159e0d6f74a510a223169bb416f3b744f45d2b6bbbe0eb58',
    'vips': '49a0c27889f1b3e268f22bdd944af29481a4e24c2ec6540075ba057bee95edf2',
    'x264': '6c8b868ddb72a18d60519f83916bacc35253597fa235f1ac6adc8c66bbbcca2b',
    'mcf x3': 'e60fdeef2a709ee36dbb04654478f1f8226ede23d03b0182164f5872cc9a7cfb',
}


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_stream_digest(case):
    assert stream_digest(case) == DIGESTS[case]


if __name__ == "__main__":
    for name in CASES:
        print(f"    {name!r}: {stream_digest(name)!r},")
