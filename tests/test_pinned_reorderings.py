"""Pinned outputs of `dealternate` and `normalize`.

`dealternate` may return any of several reorderings with the least
width and the fewest blocks; the digest pins which one, so a change in
how ties are broken shows up here and not only through the two-bridge
digests.  Regenerate the digests only for a deliberate change of
output.
"""

import hashlib
import json
import random

from sepstar.pathdecomp import dealternate, normalize


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def random_instruction_case(rng):
    """Up to 6 X, 6 Y and 3 pinned vertices, each added once and
    removed once at random times, plus up to 2 left-interface vertices,
    each removed at a random time or kept."""
    kind = {f"f{i}": "P" for i in range(rng.randint(0, 2))}
    first = sorted(kind)
    for cls, name, most in (("X", "x", 6), ("Y", "y", 6), ("P", "p", 3)):
        kind.update((f"{name}{i}", cls) for i in range(rng.randint(0, most)))
    timed = []
    for v in kind:
        if v in first:
            if rng.random() < 0.5:
                timed.append((rng.random(), ("remove", v)))
        else:
            t0, t1 = sorted((rng.random(), rng.random()))
            timed += [(t0, ("add", v)), (t1, ("remove", v))]
    timed.sort()
    return first, kind, [ins for _, ins in timed]


def test_pinned_dealternations():
    rng = random.Random(4104)
    rows = []
    for _ in range(300):
        first, kind, ins = random_instruction_case(rng)
        rows.append(dealternate(ins, kind, first))
    assert digest(rows) == (
        "a275b5136c1a5dff8c193a1bd3ed0ef904997bfe74eadf719b95a12fb8bb468d"
    )


def test_pinned_normalizations():
    # small vertex sets, so that subsets, equal neighbours and empty
    # bags are all common
    rng = random.Random(4105)
    rows = [normalize([]), normalize([set()]), normalize([set(), set()])]
    for _ in range(2000):
        bags = []
        for _ in range(rng.randint(1, 9)):
            if bags and rng.random() < 0.15:
                bags.append(set(bags[-1]))
            else:
                bags.append({v for v in "abcde" if rng.random() < 0.4})
        rows.append(normalize(bags))
    assert digest([[sorted(b) for b in bags] for bags in rows]) == (
        "d9fb20d341de6daab7a776e8bb4e7d91afb6fc1c0100b8bdc4b89502ad16ba4a"
    )
