import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (fraction_ideal_levels, fraction_problems, random_marked_poset,
                      rank_function)
from mpp.family import hrep_general, zero_parameter
from mpp.geometry import vertices
from mpp.poset import (MarkedPoset, PosetError, SaturatedChain, constant_intervals,
                       contract_constant_intervals, is_regular, non_redundant_covers,
                       remove_redundant_covers, require_valid, saturated_chains_to,
                       star_elements, validate)


def mp(elements, covers, marking):
    return MarkedPoset(tuple(elements), frozenset(covers), marking)


# -- immutability ----------------------------------------------------------------

def test_marking_is_read_only_and_poset_hashable():
    p = mp("abc", [("a", "b"), ("b", "c")], {"a": 0, "c": 2})
    assert p.unmarked == ("b",)
    with pytest.raises(TypeError):
        p.marking["b"] = 5
    with pytest.raises(TypeError):
        del p.marking["a"]
    assert p.unmarked == ("b",) and validate(p) == []
    q = mp("abc", [("b", "c"), ("a", "b")], {"c": Fraction(2), "a": "0"})
    assert p == q and hash(p) == hash(q)
    assert len({p, q, mp("abc", [("a", "b"), ("b", "c")], {"a": 0, "c": 3})}) == 2
    source = {"a": 0, "c": 2}
    r = mp("abc", [("a", "b"), ("b", "c")], source)
    source["b"] = 1  # the poset keeps its own copy
    assert r == p and r.unmarked == ("b",)


# -- validation ----------------------------------------------------------------

def test_validate_smallest_legal_instance():
    p = mp("apb", [("a", "p"), ("p", "b")], {"a": 0, "b": 1})
    assert validate(p) == []


def test_validate_non_order_preserving():
    p = mp("apb", [("a", "p"), ("p", "b")], {"a": 2, "b": 1})
    assert any("order-preserving" in msg for msg in validate(p))
    # every offending pair, in sorted order, after the cover messages
    p = mp("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")],
           {"a": 3, "b": 2, "c": 1, "d": 2})
    assert validate(p) == [
        "non-covering pair (a, c): b lies strictly between",
        "marking not order-preserving: a < b but lambda(a) > lambda(b)",
        "marking not order-preserving: a < c but lambda(a) > lambda(c)",
        "marking not order-preserving: a < d but lambda(a) > lambda(d)",
        "marking not order-preserving: b < c but lambda(b) > lambda(c)"]


def test_validate_cycle():
    p = mp("ab", [("a", "b"), ("b", "a")], {"a": 0})
    assert any("cycle" in msg for msg in validate(p))


def test_validate_non_covering_pair():
    p = mp("abc", [("a", "b"), ("b", "c"), ("a", "c")], {"a": 0, "c": 2})
    assert any("non-covering" in msg for msg in validate(p))
    # each element strictly between, in element order
    p = mp("adcb", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("b", "d")],
           {"a": 0, "d": 2})
    assert validate(p) == ["non-covering pair (a, d): c lies strictly between",
                           "non-covering pair (a, d): b lies strictly between",
                           "non-covering pair (b, d): c lies strictly between"]


def test_a_long_marked_chain_validates_in_linear_time():
    # 1,500 elements, all marked: the checks walk the covers, not every pair
    # of elements
    names = [f"c{i:04d}" for i in range(1500)]
    p = mp(names, zip(names, names[1:]), {e: i for i, e in enumerate(names)})
    start = time.perf_counter()
    assert validate(p) == []
    assert time.perf_counter() - start < 0.5


def test_validate_unmarked_minimal():
    p = mp("ab", [("a", "b")], {"b": 1})
    assert any("minimal" in msg for msg in validate(p))


# -- the integer marking checks against the Fraction oracle ---------------------

DIAMOND = [("a", "p"), ("a", "q"), ("p", "b"), ("q", "b")]
MARKING_CASES = {
    "rational": ("apqb", DIAMOND, {"a": "1/3", "b": "5/7"}),
    "negative": ("apqb", DIAMOND, {"a": "-3/2", "b": "-1/3"}),
    "equal": ("apqb", DIAMOND, {"a": "2/3", "b": "2/3"}),
    "equal-incomparable": ("abcde", [("a", "c"), ("b", "d"), ("c", "e"), ("d", "e")],
                           {"a": "1/2", "b": "1/2", "c": "1/2", "e": "3/4"}),
    "not-order-preserving": ("ab", [("a", "b")], {"a": "1/2", "b": "1/3"}),
    "negative-not-order-preserving": ("abcd", [("a", "b"), ("b", "c"), ("c", "d")],
                                      {"a": "-1/3", "b": "-2/3", "c": "-1", "d": "-2/3"}),
    "non-covering": ("adcb", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("b", "d")],
                     {"a": "-1/2", "d": "1/2"}),
    "cycle": ("abc", [("a", "b"), ("b", "c"), ("c", "a")], {"a": "1/2"}),
    "unmarked-minimal": ("abc", [("a", "c"), ("b", "c")], {"c": "-1/2"}),
    "every-fault": ("abcdx", [("a", "b"), ("b", "c"), ("a", "c"), ("x", "d"), ("c", "d")],
                    {"a": "3/4", "b": "1/4", "c": "-1/4", "d": "3/4"}),
}


def assert_marking_checks_agree(p):
    """validate and _ideal_levels against the Fraction oracle; the levels
    where the oracle is defined, on an acyclic poset whose minimal elements
    are all marked."""
    problems = validate(p)
    assert problems == fraction_problems(p)
    if p.is_acyclic and not any(m.startswith("unmarked minimal") for m in problems):
        den = p._integral_marking[0]
        levels = p._ideal_levels
        assert all(type(v) is int for v in levels)
        assert list(levels.items()) == [(v * den, level)
                                        for v, level in fraction_ideal_levels(p).items()]
    return problems


@pytest.mark.parametrize("name", sorted(MARKING_CASES))
def test_integer_marking_checks_agree_with_fractions(name):
    assert_marking_checks_agree(mp(*MARKING_CASES[name]))


def test_every_fault_is_reported_in_order():
    assert validate(mp(*MARKING_CASES["every-fault"])) == [
        "non-covering pair (a, c): b lies strictly between",
        "marking not order-preserving: a < b but lambda(a) > lambda(b)",
        "marking not order-preserving: a < c but lambda(a) > lambda(c)",
        "marking not order-preserving: b < c but lambda(b) > lambda(c)",
        "unmarked minimal element x"]


FAULTS = ("cycle", "non-covering pair", "marking not order-preserving", "unmarked minimal")


def test_integer_marking_checks_agree_with_fractions_on_random_posets():
    # rational, negative and equal values on seeded posets, some with a
    # shortcut cover, a reversed one or an unmarked minimal element
    rnd = random.Random(38)
    values = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]
    kinds = set()
    for _ in range(300):
        p = random_marked_poset(rnd, rnd.randint(1, 8))
        covers = set(p.covers)
        pairs = [(a, b) for a in p.elements for b in p.elements if p.lt(a, b)]
        if pairs and rnd.random() < 0.3:  # a shortcut: a non-covering pair
            covers.add(rnd.choice(pairs))
        if pairs and rnd.random() < 0.05:
            covers.add(rnd.choice(pairs)[::-1])
        marked = [e for e in p.elements
                  if (e in p.marking and rnd.random() < 0.95) or rnd.random() < 0.2]
        q = MarkedPoset(p.elements, covers, {e: rnd.choice(values) for e in marked})
        problems = assert_marking_checks_agree(q)
        kinds |= {k for m in problems for k in FAULTS if m.startswith(k)} or {"valid"}
    assert kinds == {"valid", *FAULTS}


# -- saturated chains -----------------------------------------------------------

def test_chains_to_r_in_example(ex52):
    chains = saturated_chains_to(ex52, "r")
    assert [c.below for c in chains] == [("0", "p"), ("0", "q"), ("2",)]
    assert all(c.target == "r" for c in chains)


def test_chains_on_chain_poset(chain_poset):
    chains = saturated_chains_to(chain_poset, "q")
    assert [c.below for c in chains] == [("a", "p")]


def test_chains_to_marked_minimal(ex52):
    assert saturated_chains_to(ex52, "0") == []


# -- constant intervals ----------------------------------------------------------

def test_constant_interval_block():
    p = mp("apb", [("a", "p"), ("p", "b")], {"a": 1, "b": 1})
    assert constant_intervals(p) == [("a", "b", "p")]


def test_no_constant_interval():
    p = mp("apb", [("a", "p"), ("p", "b")], {"a": 0, "b": 1})
    assert constant_intervals(p) == []


def test_stacked_intervals_merge():
    # a < p < b < q < c, all markings equal: one merged block
    p = mp("apbqc", [("a", "p"), ("p", "b"), ("b", "q"), ("q", "c")],
           {"a": 1, "b": 1, "c": 1})
    assert constant_intervals(p) == [("a", "b", "c", "p", "q")]


def test_contract_identity_when_strict(ex52):
    result, elem_map = contract_constant_intervals(ex52)
    assert result.covers == ex52.covers
    assert elem_map == {e: e for e in ex52.elements}


def test_contract_full_collapse():
    p = mp("apb", [("a", "p"), ("p", "b")], {"a": 1, "b": 1})
    result, elem_map = contract_constant_intervals(p)
    assert result.elements == ("a",)
    assert result.marking == {"a": Fraction(1)}
    assert elem_map == {"a": "a", "p": "a", "b": "a"}


def test_contract_idempotent():
    rnd = random.Random(5)
    p = mp("apbqc", [("a", "p"), ("p", "b"), ("b", "q"), ("q", "c")],
           {"a": 1, "b": 1, "c": 3})
    once, _ = contract_constant_intervals(p)
    assert constant_intervals(once) == []
    twice, emap = contract_constant_intervals(once)
    assert twice.covers == once.covers and twice.marking == once.marking


def test_contraction_keeps_the_marked_order_polyhedron():
    # O_0(P) and O_0(P/~) have the same vertices and rays, the quotient's
    # read back through the element map: each block's coordinates are equal
    rnd = random.Random(22)
    checked = 0
    while checked < 40:
        p = random_marked_poset(rnd, rnd.randint(3, 8), bounded=rnd.random() < 0.7)
        # halved heights: comparable marked elements may share a value
        p = mp(p.elements, p.covers, {a: v // 2 for a, v in p.marking.items()})
        if not constant_intervals(p):
            continue
        checked += 1
        q, elem_map = contract_constant_intervals(p)
        assert constant_intervals(q) == [] and validate(q) == []
        at = [q.elements.index(elem_map[e]) for e in p.elements]
        v = vertices(hrep_general(p, zero_parameter(p), projected=False))
        w = vertices(hrep_general(q, zero_parameter(q), projected=False))
        assert v.vertices == tuple(sorted(tuple(x[i] for i in at) for x in w.vertices))
        assert v.rays == tuple(sorted(tuple(r[i] for i in at) for r in w.rays))


# -- redundant covers -------------------------------------------------------------

def test_remove_redundant_regular_unchanged(ex52):
    assert remove_redundant_covers(ex52).covers == ex52.covers


def test_remove_redundant_cover_removed():
    # cover p < q witnessed by marked a <= q, p <= b with lambda(a) >= lambda(b)
    p = mp(["a", "b", "c", "p", "q"],
           [("c", "p"), ("a", "q"), ("p", "q"), ("p", "b")],
           {"a": 2, "b": 1, "c": 0})
    out = remove_redundant_covers(p)
    assert ("p", "q") not in out.covers
    assert out.covers == non_redundant_covers(p)


def test_remove_redundant_requires_strict():
    p = mp("apb", [("a", "p"), ("p", "b")], {"a": 1, "b": 1})
    with pytest.raises(PosetError):
        remove_redundant_covers(p)


def test_diamond_regular(diamond):
    assert is_regular(diamond)
    assert remove_redundant_covers(diamond).covers == diamond.covers


def test_remove_redundant_rerun_is_identity():
    p = mp(["a", "b", "c", "p", "q"],
           [("c", "p"), ("a", "q"), ("p", "q"), ("p", "b")],
           {"a": 2, "b": 1, "c": 0})
    out = remove_redundant_covers(p)
    again = remove_redundant_covers(out)
    assert again.covers == out.covers and again.elements == out.elements


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_remove_redundant_matches_bruteforce(seed):
    import warnings

    rnd = random.Random(seed)
    p = random_marked_poset(rnd, rnd.randint(3, 7))
    if not p.strictly_marked:
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = remove_redundant_covers(p)
    assert is_regular(out)
    # one-pass brute force over all marked pairs, on the original poset
    expected = set()
    for (a, b) in p.covers:
        redundant = any(
            p.leq(m1, b) and p.leq(a, m2) and m1 != m2
            and p.marking[m1] >= p.marking[m2]
            for m1 in p.marking for m2 in p.marking)
        if not redundant:
            expected.add((a, b))
    if not caught:
        assert out.covers == frozenset(expected)
    else:
        # order sensitivity: the fixed point is a superset of the one-pass set
        assert frozenset(expected) <= out.covers


def test_remove_redundant_order_sensitivity_diagnostic():
    """Two incomparable marked elements with equal values below a common
    element witness each other's covers; only one cover can be removed and a
    diagnostic warning fires.  The polyhedra are unchanged either way."""
    import warnings

    from mpp.family import hrep_general, zero_parameter, one_parameter
    from mpp.geometry import vertices
    from mpp.poset import RedundancyOrderWarning

    p = mp(["a", "b", "q", "t"], [("a", "q"), ("b", "q"), ("q", "t")],
           {"a": 0, "b": 0, "t": 1})
    assert p.strictly_marked
    with pytest.warns(RedundancyOrderWarning):
        out = remove_redundant_covers(p)
    assert is_regular(out)
    assert ("b", "q") in out.covers and ("a", "q") not in out.covers
    for t in (zero_parameter(p), one_parameter(p)):
        v_before = vertices(hrep_general(p, t))
        v_after = vertices(hrep_general(out, t))
        assert set(v_before.vertices) == set(v_after.vertices)
        assert set(v_before.rays) == set(v_after.rays)


# -- star elements ----------------------------------------------------------------

def test_ex52_r_not_star(ex52):
    assert star_elements(ex52, C={"p", "q"}, O={"r"}) == ()


def test_double_star_element():
    from conftest import make_double_star
    p = make_double_star()
    assert star_elements(p, C={"c1", "c2", "d1", "d2"}, O={"q"}) == ("q",)


def test_unique_chain_excluded(chain_poset):
    assert star_elements(chain_poset, C={"p"}, O={"q"}) == ()


def test_star_with_empty_C(diamond):
    # C empty: star element iff >= 2 covers below and >= 2 above in P* | O
    p = mp(["a", "b", "p", "x", "y"],
           [("a", "p"), ("b", "p"), ("p", "x"), ("p", "y")],
           {"a": 0, "b": 0, "x": 2, "y": 3})
    assert star_elements(p, C=set(), O={"p"}) == ("p",)
    assert star_elements(diamond, C=set(), O={"p", "q"}) == ()


def test_star_partition_checked(ex52):
    with pytest.raises(PosetError):
        star_elements(ex52, C={"p"}, O={"r"})


def _plain_star_elements(poset):
    """The coarse notion: >= 2 upper covers and >= 2 saturated chains from a
    marked element (unmarked interior)."""
    out = []
    for p in poset.unmarked:
        if len(poset.upper_covers(p)) >= 2 and len(saturated_chains_to(poset, p)) >= 2:
            out.append(p)
    return tuple(sorted(out))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_admissible_partition_star_matches_plain_notion(seed):
    """For C an order ideal of the unmarked elements and q minimal in O, the
    chain-order star property coincides with the plain star-element notion."""
    rnd = random.Random(seed)
    p = random_marked_poset(rnd, rnd.randint(3, 7))
    unmarked = set(p.unmarked)
    # C = unmarked part of a random order ideal
    seed_elems = [e for e in p.elements if rnd.random() < 0.5]
    ideal = {e for e in p.elements if any(p.leq(e, s) for s in seed_elems)}
    C = frozenset(ideal & unmarked)
    O = frozenset(unmarked - C)
    plain = _plain_star_elements(p)
    stars = star_elements(p, C, O)
    for q in O:
        if all(not p.lt(o, q) for o in O if o != q):  # q minimal in O
            assert (q in stars) == (q in plain)


# -- rank functions ----------------------------------------------------------------

def test_rank_chain(chain_poset):
    assert rank_function(chain_poset) == {"a": 0, "p": 1, "q": 2, "b": 3}


def test_rank_unequal_paths_absent():
    # two saturated paths of different lengths join at the top
    p = mp(["a", "b", "c", "e", "d"],
           [("a", "b"), ("b", "d"), ("a", "c"), ("c", "e"), ("e", "d")],
           {"a": 0, "d": 3})
    assert validate(p) == []
    assert rank_function(p) is None


def test_rank_ex52(ex52):
    rk = rank_function(ex52)
    assert rk == {"0": 0, "2": 1, "p": 1, "q": 1, "r": 2, "3": 2, "4": 3}
    assert all(rk[q] == rk[p] + 1 for p, q in ex52.covers)


def test_rank_lambda_condition():
    # rank equations solvable, but an incomparable marked element in a second
    # component violates lambda growth across ranks
    p = mp(["a", "p", "t", "b"], [("a", "p"), ("p", "t")],
           {"a": 0, "t": 1, "b": 5})
    assert validate(p) == []
    assert rank_function(p) is None


def test_rank_per_component_normalization():
    p = mp(["a", "p", "b", "c", "q"], [("a", "p"), ("p", "b"), ("c", "q")],
           {"a": 0, "b": 2, "c": 0, "q": 1})
    rk = rank_function(p)
    assert rk is not None and rk["a"] == 0 and rk["c"] == 0


# -- structural properties -----------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_random_posets_valid_and_covering(seed):
    rnd = random.Random(seed)
    p = random_marked_poset(rnd, rnd.randint(2, 8))
    assert validate(p) == []
    ext = p.linear_extension()
    pos = {e: i for i, e in enumerate(ext)}
    assert all(pos[a] < pos[b] for a, b in p.covers)


# -- the order as bits ---------------------------------------------------------------

def reachable(poset) -> dict[str, frozenset[str]]:
    """Oracle: above[a] = {b : a < b}, by a search up the covers."""
    above = {}
    for a in poset.elements:
        seen, stack = set(), list(poset.upper_covers(a))
        while stack:
            b = stack.pop()
            if b not in seen:
                seen.add(b)
                stack.extend(poset.upper_covers(b))
        above[a] = frozenset(seen)
    return above


def blocks_of_constant_intervals(poset, above) -> list[tuple[str, ...]]:
    """Oracle: the intervals [a, b] of marked a < b with equal values, as
    name sets, merged while two of them share an element."""
    m = poset.marking
    blocks = [{a, b} | {p for p in above[a] if b in above[p]}
              for a in m for b in above[a] if b in m and m[a] == m[b]]
    merged = []
    for block in blocks:
        for other in [o for o in merged if o & block]:
            merged.remove(other)
            block |= other
        merged.append(block)
    return sorted(tuple(sorted(b)) for b in merged)


@pytest.mark.parametrize("seed", range(40))
def test_bit_order_matches_name_set_oracles(seed):
    rnd = random.Random(seed)
    p = random_marked_poset(rnd, rnd.randint(2, 9))
    if seed % 2:  # halved heights: comparable marked elements may share a value
        p = mp(p.elements, p.covers, {a: v // 2 for a, v in p.marking.items()})
    above, m = reachable(p), p.marking
    assert all(p.lt(a, b) == (b in above[a]) and p.leq(a, b) == (a == b or b in above[a])
               for a in p.elements for b in p.elements)
    assert p.strictly_marked == (not any(b in m and m[a] == m[b] for a in m for b in above[a]))
    blocks = blocks_of_constant_intervals(p, above)
    assert constant_intervals(p) == blocks
    # the quotient: blocks named by their least member, B < B' iff some
    # element of B lies below some element of B'
    q, elem_map = contract_constant_intervals(p)
    name = {e: b[0] for b in blocks for e in b}
    assert elem_map == {e: name.get(e, e) for e in p.elements}
    members = {x: {e for e in p.elements if elem_map[e] == x} for x in q.elements}
    assert all(q.lt(x, y) == any(above[a] & members[y] for a in members[x])
               for x in q.elements for y in q.elements if x != y)
    assert q.marking == {elem_map[a]: v for a, v in m.items()}


def test_a_long_marked_chain_keeps_its_down_sets_small():
    # the down-sets of 1,500 elements as bits take about n^2 / 8 bytes; as
    # sets of names they took about 50 MiB
    names = [f"c{i:04d}" for i in range(1500)]
    p = mp(names, zip(names, names[1:]), {e: i for i, e in enumerate(names)})
    tracemalloc.start()
    try:
        below = p._below
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    assert below[names[-1]] == (1 << 1499) - 1 and p._members(below[names[2]]) == names[:2]


# -- error paths and small forms ------------------------------------------------------

def test_saturated_chain_prints_bottom_to_top():
    assert str(SaturatedChain(("a", "p"), "b")) == "a<p<b"


def test_marking_on_an_unknown_element_is_refused():
    with pytest.raises(PosetError, match="marking on unknown element z"):
        mp(("a",), (), {"z": 0})


def test_linear_extension_of_a_cyclic_poset_is_refused():
    poset = mp(("a", "b"), {("a", "b"), ("b", "a")}, {"a": 0})
    assert not poset.is_acyclic
    with pytest.raises(PosetError, match="cycle"):
        poset.linear_extension()


def test_require_valid_raises_the_problems():
    poset = mp(("a", "p"), {("a", "p")}, {"p": 0})  # a is minimal and unmarked
    with pytest.raises(PosetError, match="unmarked minimal element a"):
        require_valid(poset)
