"""Seeded inputs and query lists for the four benchmark workloads.

    python3 bench/workloads.py --workload vertices --seed 1 --out DIR

writes the poset, partition and parameter JSON files the queries read into
DIR, plus DIR/manifest.json listing each query's `mpp` argument vector.  The
same seed gives the same files.  `mpp` itself receives only these files.

Posets:
- gridMxN: the product of chains M x N, its bottom marked 0 and its top
  marked M + N (fixed for every seed).
- ex52: the source paper's running example (markings 0, 2, 3, 4).
- dstar: the double star, two chains below and two above one element.
- randK: seeded random multi-marked posets (all minimal and maximal elements
  marked, marking twice the height, so integral and strictly increasing).

The seed also draws the interior parameters (coordinates from 1/4..3/4) and
the chain parts of the partitions that pick hypercube corners.  The fixed
posets carry most of each pass, so that a pass costs about the same for
every seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random

INTERIOR_VALUES = ("1/4", "1/3", "1/2", "2/3", "3/4")


def grid(m: int, n: int) -> dict:
    name = lambda i, j: f"x{i}{j}"
    covers = [[name(i, j), name(i + 1, j)] for i in range(m - 1) for j in range(n)]
    covers += [[name(i, j), name(i, j + 1)] for i in range(m) for j in range(n - 1)]
    return {"elements": [name(i, j) for i in range(m) for j in range(n)],
            "covers": covers,
            "marking": {name(0, 0): "0", name(m - 1, n - 1): str(m + n)}}


EX52 = {"elements": ["0", "2", "3", "4", "p", "q", "r"],
        "covers": [["0", "p"], ["0", "q"], ["p", "r"], ["q", "r"], ["2", "r"],
                   ["r", "4"], ["p", "3"], ["q", "3"]],
        "marking": {"0": "0", "2": "2", "3": "3", "4": "4"}}

DSTAR = {"elements": ["a", "c1", "c2", "q", "d1", "d2", "z"],
         "covers": [["a", "c1"], ["a", "c2"], ["c1", "q"], ["c2", "q"],
                    ["q", "d1"], ["q", "d2"], ["d1", "z"], ["d2", "z"]],
         "marking": {"a": "0", "z": "3"}}


def random_multimarked(rnd: random.Random, n: int, unmarked: int) -> dict:
    """Random poset on n elements with exactly `unmarked` unmarked elements."""
    while True:
        names = [f"e{i}" for i in range(n)]
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < 0.4}
        reach = {i: set() for i in range(n)}
        for i in reversed(range(n)):
            for a, b in edges:
                if a == i:
                    reach[i] |= {b} | reach[b]
        covers = sorted((a, b) for a, b in edges
                        if not any(b in reach[m] for m in reach[a] if m != b))
        lower = {i: [a for a, b in covers if b == i] for i in range(n)}
        upper = {i: [b for a, b in covers if a == i] for i in range(n)}
        height = {}
        for i in range(n):
            height[i] = 0 if not lower[i] else 1 + max(height[a] for a in lower[i])
        marked = {i for i in range(n) if not lower[i] or not upper[i]}
        rest = [i for i in range(n) if i not in marked]
        if len(rest) < unmarked:
            continue
        rnd.shuffle(rest)
        marked |= set(rest[unmarked:])
        return {"elements": names,
                "covers": [[names[a], names[b]] for a, b in covers],
                "marking": {names[i]: str(2 * height[i]) for i in sorted(marked)}}


def unmarked(poset: dict) -> list[str]:
    return [e for e in poset["elements"] if e not in poset["marking"]]


class Inputs:
    """Writes input files into one directory and collects the queries."""

    def __init__(self, out: str, rnd: random.Random):
        self.out = out
        self.rnd = rnd
        self.posets: dict[str, dict] = {}
        self.queries: list[list[str]] = []
        os.makedirs(out, exist_ok=True)

    def _write(self, name: str, data: dict) -> str:
        path = os.path.join(self.out, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
        return path

    def poset(self, key: str, data: dict) -> str:
        self.posets[key] = data
        return self._write(f"{key}.json", data)

    def interior(self, key: str, i: int) -> str:
        t = {p: self.rnd.choice(INTERIOR_VALUES) for p in unmarked(self.posets[key])}
        return self._write(f"{key}.t{i}.json", {"t": t})

    def corner(self, key: str, i: int, chain=None) -> str:
        names = unmarked(self.posets[key])
        if chain is None:
            chain = [p for p in names if self.rnd.random() < 0.5]
        return self._write(f"{key}.part{i}.json",
                           {"C": sorted(chain), "O": sorted(set(names) - set(chain))})

    def face_point(self, key: str, i: int) -> str:
        """A parameter on the boundary: about half the coordinates pinned to
        0 or 1, the rest interior (the target of a degeneration)."""
        t = {p: (self.rnd.choice(("0", "1")) if self.rnd.random() < 0.5 else v)
             for p, v in self._read_t(key, i).items()}
        return self._write(f"{key}.face{i}.json", {"t": t})

    def _read_t(self, key, i):
        with open(os.path.join(self.out, f"{key}.t{i}.json"), encoding="utf-8") as fh:
            return json.load(fh)["t"]

    def q(self, *argv: str):
        self.queries.append(list(argv))


def build_vertices(w: Inputs):
    """Double description at corners and at interior t, on a ladder of sizes.
    Interior t makes the intermediate ray set grow, most on grid3x4.

    The ladder has three cost tiers: ex52, grid2x3 and the random posets
    are cheap, dstar and grid2x4 middling, grid3x3 and grid3x4 dear.  The
    middle tier holds the median query, so query_p50_ms does not depend on
    how the seed shapes the random posets."""
    ladder = {"ex52": EX52, "grid2x3": grid(2, 3), "rand0": None, "rand1": None,
              "dstar": DSTAR, "grid2x4": grid(2, 4), "grid3x3": grid(3, 3),
              "grid3x4": grid(3, 4)}
    for key, data in ladder.items():
        data = data or random_multimarked(w.rnd, 7, 4)
        path = w.poset(key, data)
        w.q("vertices", path)
        w.q("vertices", path, "--partition", w.corner(key, 0, unmarked(data)))
        corners = (1, 2, 3, 4) if key in ("dstar", "grid2x4") else (1, 2)
        for i in corners:
            w.q("vertices", path, "--partition", w.corner(key, i))
        w.q("vertices", path, "--t", "generic")
        # eight interior t on grid3x4, whose DD cost varies most with t
        interior = range(8) if key == "grid3x4" else (0, 1)
        for i in interior:
            w.q("vertices", path, "--t", w.interior(key, i))


def build_faces(w: Inputs):
    """Face lattices, f-vectors and degeneration maps.  The dstar f-vectors
    are the middle cost tier that holds the median query."""
    for key, data in (("ex52", EX52), ("grid2x3", grid(2, 3)), ("dstar", DSTAR),
                      ("grid2x4", grid(2, 4))):
        path = w.poset(key, data)
        w.q("fvector", path)
        w.q("fvector", path, "--partition", w.corner(key, 0, unmarked(data)))
        w.q("fvector", path, "--partition", w.corner(key, 1))
        w.q("fvector", path, "--t", "generic")
        if key == "dstar":
            w.q("fvector", path, "--partition", w.corner(key, 2))
            w.q("fvector", path, "--partition", w.corner(key, 3))
            w.q("fvector", path, "--t", w.interior(key, 1))
            w.q("fvector", path, "--t", w.interior(key, 2))
        if key != "grid2x4":
            w.q("degenerate", path, "--from-t", w.interior(key, 0),
                "--to-t", w.face_point(key, 0))
    w.q("fvector", w.poset("grid3x3", grid(3, 3)))
    w.q("sweep", os.path.join(w.out, "ex52.json"), "--check", "types")
    w.q("sweep", w.poset("grid2x2", grid(2, 2)), "--check", "domination")


def build_counting(w: Inputs):
    """Lattice points (box scan), Ehrhart counts and the Ehrhart sweep.  The
    dstar and grid2x3 scans are the middle cost tier that holds the median."""
    for key, data in (("ex52", EX52), ("dstar", DSTAR), ("grid2x3", grid(2, 3)),
                      ("grid2x2", grid(2, 2))):
        path = w.poset(key, data)
        w.q("lattice-points", path)
        w.q("lattice-points", path, "--partition", w.corner(key, 1))
        if key in ("dstar", "grid2x3"):
            w.q("lattice-points", path, "--partition", w.corner(key, 2))
    w.q("lattice-points", w.poset("grid2x4", grid(2, 4)))
    # small, so that their seed-dependent box sizes barely move a pass
    for k in range(3):
        w.q("lattice-points", w.poset(f"rand{k}", random_multimarked(w.rnd, 7, 3)))
    for key in ("ex52", "grid2x2"):
        w.q("ehrhart", os.path.join(w.out, f"{key}.json"))
        w.q("sweep", os.path.join(w.out, f"{key}.json"), "--check", "ehrhart")


def build_lp(w: Inputs):
    """Exact simplex: redundancy elimination, tameness, covector search."""
    for key, data in (("ex52", EX52), ("grid2x3", grid(2, 3)), ("dstar", DSTAR)):
        path = w.poset(key, data)
        if key != "dstar":
            w.q("hrep", path, "--irredundant")
            w.q("hrep", path, "--t", "generic", "--irredundant")
        w.q("hrep", path, "--partition", w.corner(key, 1), "--irredundant")
        w.q("subdivision", path)
        w.q("vertices", path, "--t", "generic", "--method", "tropical")
        w.q("vertices", path, "--t", w.interior(key, 0), "--method", "tropical")
    for key in ("ex52", "grid2x3"):
        w.q("sweep", os.path.join(w.out, f"{key}.json"), "--check", "conjecture5")
    w.q("tame", os.path.join(w.out, "grid2x3.json"))
    w.q("sweep", w.poset("grid2x2", grid(2, 2)), "--check", "hibi-li")


WORKLOADS = {"vertices": build_vertices, "faces": build_faces,
             "counting": build_counting, "lp": build_lp}


def generate(workload: str, seed: int, out: str) -> dict:
    w = Inputs(out, random.Random(f"{workload}:{seed}"))
    WORKLOADS[workload](w)
    manifest = {"workload": workload, "seed": seed, "posets": sorted(w.posets),
                "queries": w.queries}
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    m = generate(args.workload, args.seed, args.out)
    print(f"{len(m['queries'])} queries written to {args.out}")


if __name__ == "__main__":
    main()
