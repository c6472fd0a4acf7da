"""The seeded instance stream of the property batches and the benchmark.

The batches (``randomchecks.property_suite``) and the benchmark's point
queries draw their forms and points through ``Rationals.random`` and
``PrimeField.random``.  Those draw with ``randrange``; these tests pin that
they give what ``randint`` gives from the same state, and pin the printed
instances themselves, so that a Python version whose ``randrange`` draws
differently fails here and not as a silent change of every seeded job.
"""

import hashlib
import random

import pytest

from polarcalc.polyring import QQ, PolyRing, PrimeField
from polarcalc.randomchecks import random_homogeneous, random_point, surface_through

GF = PrimeField(1048583)


@pytest.mark.parametrize("field, low, high", [(QQ, -9, 9), (GF, 0, 1048582)], ids=["QQ", "GF"])
def test_field_draws_are_randints(field, low, high):
    for seed in (1, 20240913, 2 ** 31 - 1):
        drawn, reference = random.Random(seed), random.Random(seed)
        assert [field.random(drawn) for _ in range(2000)] == [
            reference.randint(low, high) for _ in range(2000)
        ]
        # The two streams are left in the same state.
        assert drawn.random() == reference.random()


def _instances(field) -> str:
    ring = PolyRing(("x", "y", "z", "w"), field)
    lines = []
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        lines += [str(random_homogeneous(ring, d, rng)) for d in range(1, 6)]
        lines += [str(random_point(ring, rng).coords) for _ in range(3)]
        a = random_point(ring, rng)
        lines += [str(surface_through(ring, a, d, rng)) for d in range(2, 5)]
    return "\n".join(lines)


@pytest.mark.parametrize("field, digest", [
    (QQ, "2ca4d39f146c5c4cf113d500b1910e7c2e9f368f72d93ae467ce04dc8cf76dac"),
    (GF, "c3c5104f342a47de7a64c11bce1b54f52491847431280743346102e0b88cf1da"),
], ids=["QQ", "GF"])
def test_printed_instances_are_pinned(field, digest):
    assert hashlib.sha256(_instances(field).encode()).hexdigest() == digest
