"""The saturated-chain families against an independent brute force: every
path along cover relations, listed by a plain depth-first search without
memo, then filtered by where it starts, ends and passes through."""

import random

from conftest import random_marked_poset, unimodular_move
from mpp.family import Partition, hrep_chain_order
from mpp.poset import chain_counts, chains_through, saturated_chains_to, star_elements


def cover_paths(poset):
    """Every chain x_0 < x_1 < ... < x_m (m >= 1) of cover relations."""
    up = {e: [] for e in poset.elements}
    for a, b in poset.covers:
        up[a].append(b)
    out = []

    def extend(path):
        for b in up[path[-1]]:
            out.append(path + (b,))
            extend(path + (b,))

    for e in poset.elements:
        extend((e,))
    return out


def _through(paths, via, stops):
    return [p for p in paths if p[0] in stops and p[-1] in stops and set(p[1:-1]) <= via]


def _expected_move(poset, C, O, q, paths):
    """unimodular_move's (M, b), from the single brute-force chain below q
    (or, failing that, above q) through C to P* | O."""
    stops = poset.marked | O
    down = [p for p in paths if p[-1] == q and p[0] in stops and set(p[1:-1]) <= C]
    up = [p for p in paths if p[0] == q and p[-1] in stops and set(p[1:-1]) <= C]
    if len(down) == 1:
        sign, s, mids = 1, down[0][0], down[0][1:-1]
    elif len(up) == 1:
        sign, s, mids = -1, up[0][-1], up[0][1:-1]
    else:
        return None
    coords = poset.unmarked
    row = {e: 0 for e in coords}
    row[q] = sign
    for m in mids:
        row[m] -= 1
    offset = {e: 0 for e in coords}
    if s in poset.marked:
        offset[q] = -sign * poset.marking[s]
    else:
        row[s] -= sign
    matrix = tuple(tuple(row[f] if e == q else int(e == f) for f in coords) for e in coords)
    return matrix, tuple(offset[e] for e in coords)


def _cases():
    from test_golden import POSETS

    rnd = random.Random(4711)
    posets = [make() for make in POSETS.values()]
    posets += [random_marked_poset(rnd, rnd.randint(3, 9)) for _ in range(60)]
    for poset in posets:
        for _ in range(3):
            C = frozenset(e for e in poset.unmarked if rnd.random() < 0.5)
            yield poset, C, frozenset(poset.unmarked) - C


def test_chain_families_match_brute_force_cover_paths():
    seen = {"moves": 0, "none": 0, "stars": 0}
    for poset, C, O in _cases():
        paths = cover_paths(poset)
        marked, unmarked = poset.marked, frozenset(poset.unmarked)

        # the chains indexing the inequalities of O_t
        to = {e: sorted(p[:-1] for p in paths if p[-1] == e and p[0] in marked
                        and set(p[1:-1]) <= unmarked) for e in poset.elements}
        for e in poset.elements:
            chains = saturated_chains_to(poset, e)
            assert [c.below for c in chains] == to[e] and all(c.target == e for c in chains)

        # the chain-order chains through C between elements of P* | O
        stops = marked | O
        through = _through(paths, C, stops)
        assert chains_through(poset, C, stops) == sorted((p[0], p[1:-1], p[-1]) for p in through)
        down, up = chain_counts(poset, C, O)
        assert down == {q: sum(p[-1] == q for p in through) for q in O}
        assert up == {q: sum(p[0] == q for p in through) for q in O}
        stars = star_elements(poset, C, O)
        assert stars == tuple(sorted(q for q in O if down[q] >= 2 and up[q] >= 2))
        seen["stars"] += bool(stars)

        # every counted chain is a row of the chain-order H-rep
        part = Partition(C, O)
        origins = {c.origin for c in hrep_chain_order(poset, part).inequalities}
        for p in through:
            if p[0] in O or p[-1] in O:
                assert ("cochain",) + p in origins

        for q in sorted(O):
            expected = _expected_move(poset, C, O, q, paths)
            assert unimodular_move(poset, part, q) == expected
            seen["moves" if expected else "none"] += 1
    assert min(seen.values()) > 0, seen
