"""Seeded inputs of the three workloads.

Run as a script, it writes the substitution files of one workload and a
manifest of its jobs into a directory:

    python3 perfbench/inputs.py --workload draw --seed 1 --out perfbench/out/x

It runs in its own process so that numpy and sympy, which the samplers use,
never count towards the benchmark process's set-up time or peak memory.
The same seed always gives the same files and the same job list.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import string
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402

TRIBONACCI = {"a": "ab", "b": "ac", "c": "a"}
FLIPPED_TRIBONACCI = {"a": "ab", "b": "ca", "c": "a"}
INTERVAL = ({"a": "aba", "b": "ab"}, {"a": "aba", "b": "ba"})
NONPALINDROMIC = {"a": "aabbaabab", "b": "ab"}
NO_PREFIX = {"a": "abc", "b": "a", "c": "ac"}
# The third-largest system of the randomized C8 acceptance sample (seed 106,
# attempt 201): 59 pairs.  Its two 59x59 char polys take about 2.4 s; the two
# larger systems (79 and 80 pairs, 7-8 s each) would leave room for too few
# rounds in a run.
C8_LARGE = ({"a": "baa", "b": "acb", "c": "a"}, {"a": "baa", "b": "cab", "c": "a"})

C8_LIMITS = {"prefix_cutoff": 20000, "max_pairs": 80, "max_pair_length": 20000}
NO_PREFIX_CUTOFF = 10 ** 6

# How many sampled pairs of each outcome the bpa workload runs.  Terminating
# runs are kept to at most BPA_SAMPLE_MAX_PAIRS pairs: the one large system
# is C8_LARGE, so the cost of a run does not hinge on whether a seed happens
# to draw a 60- or 80-pair system (their char polys take seconds).  Runs that
# stop at a limit are kept until the letters split by their string-level runs
# reach BPA_LIMIT_LETTERS: their cost follows those letters, which vary by a
# factor of 0.57-0.84 (CV) from run to run, so a fixed count of them would let
# the sample's cost swing with the seed.
BPA_QUOTAS = {"ok": 40, "not_found": 2}
BPA_LIMIT_LETTERS = {"max_pair_length": 10 ** 6, "max_pairs": 8 * 10 ** 4}
BPA_SAMPLE_MAX_PAIRS = 24

# How many random 4-6 letter substitutions of each class classify runs:
# (irreducible, Pisot).  Image length at most 2 keeps the exact factor
# search of every sampled input well under a second.
CLASSIFY_QUOTAS = {(True, True): 4, (False, True): 8, (True, False): 8, (False, False): 8}
CLASSIFY_SAFE_MARGIN = 1e-6  # 1000 times rauzykit's refusal margin of 1e-9


def reverse(rules: dict[str, str]) -> dict[str, str]:
    return {a: w[::-1] for a, w in rules.items()}


def kbonacci(k: int) -> dict[str, str]:
    letters = string.ascii_lowercase[:k]
    rules = {letters[i]: letters[0] + letters[i + 1] for i in range(k - 1)}
    rules[letters[-1]] = letters[0]
    return rules


def family(i: int) -> dict[str, str]:
    return {"a": "a" * i + "b", "b": "a" * i + "c", "c": "a"}


class Inputs:
    """Substitution files and the job list of one workload."""

    def __init__(self, rng: random.Random, out: str):
        self.rng = rng
        self.out = out
        self.subs: dict[str, dict] = {}
        self.jobs: list[dict] = []
        os.makedirs(os.path.join(out, "subs"), exist_ok=True)

    def sub(self, name: str, rules: dict[str, str], rename: bool = True) -> str:
        """Register a substitution; its letters get seeded names, in the same order."""
        letters = "".join(rules)
        if rename:
            names = "".join(self.rng.sample(string.ascii_lowercase, len(letters)))
            table = str.maketrans(letters, names)
            rules = {a.translate(table): w.translate(table) for a, w in rules.items()}
            letters = names
        self.subs[name] = {"letters": letters, "rules": rules}
        path = os.path.join(self.out, "subs", name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"alphabet": list(letters), "rules": rules}, handle)
        return name

    def pair(self, name: str, first: dict[str, str], second: dict[str, str]) -> tuple[str, str]:
        """Two substitutions over one seeded renaming of their common alphabet."""
        letters = "".join(first)
        names = "".join(self.rng.sample(string.ascii_lowercase, len(letters)))
        table = str.maketrans(letters, names)
        named = [{a.translate(table): w.translate(table) for a, w in r.items()} for r in (first, second)]
        return self.sub(name, named[0], rename=False), self.sub(name + "_r", named[1], rename=False)

    def job(self, **spec) -> None:
        self.jobs.append(spec)

    def manifest(self) -> dict:
        files = [os.path.join(self.out, "subs", name + ".json") for name in self.subs]
        return {"subs": self.subs, "jobs": self.jobs, "files": files}


def draw(inp: Inputs) -> None:
    """Fixed-point stream, one-hot cumsum, projection, grid and export code."""
    inp.job(kind="fractal", name="fractal-tribonacci-1e6", sub=inp.sub("trib_big", TRIBONACCI), n=10 ** 6)
    for name, rules in (
        ("tribonacci", TRIBONACCI),
        ("flipped", FLIPPED_TRIBONACCI),
        ("family2", family(2)),
        ("family3", family(3)),
    ):
        first, second = inp.pair(name, rules, reverse(rules))
        inp.job(kind="fractal", name=f"fractal-{name}", sub=first, n=5 * 10 ** 4, export=True)
        inp.job(kind="intersect", name=f"intersect-{name}", sub=first, sub2=second, n=5 * 10 ** 4, export=True)
    first, second = inp.pair("symmetry", TRIBONACCI, reverse(TRIBONACCI))
    inp.job(kind="symmetry", name="symmetry-tribonacci", sub=first, sub2=second, n=2 * 10 ** 5)


def sample_classify(inp: Inputs) -> None:
    need = dict(CLASSIFY_QUOTAS)
    count = 0
    while any(need.values()):
        k = inp.rng.choice([4, 5, 6])
        letters = string.ascii_lowercase[:k]
        rules = {a: "".join(inp.rng.choice(letters) for _ in range(inp.rng.randint(1, 2))) for a in letters}
        matrix = oracle.incidence(letters, rules)
        if not oracle.is_primitive(matrix):
            continue
        info = oracle.classify(oracle.char_poly(matrix))
        key = (info["is_irreducible"], info["is_pisot"])
        if info["margin"] <= CLASSIFY_SAFE_MARGIN or not need[key]:
            continue
        # An integer Perron root is left out: when root bisection lands exactly
        # on it, minimal_polynomial_of_dominant_root keeps the wrong factor and
        # the Pisot flag comes out wrong (a FOUND line in CHANGES.md).
        if info["minpoly_degree"] == 1:
            continue
        need[key] -= 1
        count += 1
        inp.job(kind="analyze", name=f"analyze-random-{count}", sub=inp.sub(f"random{count}", rules))


def classify(inp: Inputs) -> None:
    """Exact factor search: k-bonacci and random 4-6 letter substitutions.

    Both commands run three factor searches.  10-bonacci (about 9 s per
    command) is left out, so that a round stays near 6 s and a run holds
    several; 11-bonacci goes through `analyze` only (about 4 s).
    """
    for k in (3, 4, 5, 6, 7, 8, 9, 11):
        name = inp.sub(f"kbonacci{k}", kbonacci(k))
        inp.job(kind="analyze", name=f"analyze-kbonacci{k}", sub=name, kbonacci=k)
        if k != 11:
            inp.job(kind="fractal", name=f"fractal-kbonacci{k}", sub=name, n=10 ** 4)
    sample_classify(inp)


def sample_pairs(inp: Inputs) -> None:
    """C8's sampler (2-3 letters, images of 1-3 letters, a shuffled-image copy),
    kept by the outcome the string-level oracle predicts until each quota and
    each letter budget is met."""
    need = dict(BPA_QUOTAS)
    letters_left = dict(BPA_LIMIT_LETTERS)
    count = 0
    while any(need.values()) or any(v > 0 for v in letters_left.values()):
        k = inp.rng.choice([2, 3])
        letters = string.ascii_lowercase[:k]
        rules = {a: "".join(inp.rng.choice(letters) for _ in range(inp.rng.randint(1, 3))) for a in letters}
        if not oracle.is_primitive(oracle.incidence(letters, rules)):
            continue
        shuffled = {}
        for a, w in rules.items():
            chars = list(w)
            inp.rng.shuffle(chars)
            shuffled[a] = "".join(chars)
        result = oracle.bpa(letters, rules, shuffled, **C8_LIMITS)
        if result.status in letters_left:
            if letters_left[result.status] <= 0:
                continue
            letters_left[result.status] -= result.letters
        elif not need[result.status] or len(result.pairs) > BPA_SAMPLE_MAX_PAIRS:
            continue
        else:
            need[result.status] -= 1
        count += 1
        first, second = inp.pair(f"sample{count}", rules, shuffled)
        inp.job(kind="pairs", name=f"pairs-sample-{count}", sub=first, sub2=second, limits=C8_LIMITS)


def bpa(inp: Inputs) -> None:
    """Worklist, minimal_split, Word construction and pair char polys."""
    cases = [("interval", *INTERVAL)]
    cases += [(f"family{i}", family(i), reverse(family(i))) for i in (1, 2, 3, 4)]
    cases += [("flipped", FLIPPED_TRIBONACCI, reverse(FLIPPED_TRIBONACCI))]
    cases += [("nonpalindromic", NONPALINDROMIC, reverse(NONPALINDROMIC))]
    for name, first, second in cases:
        a, b = inp.pair(name, first, second)
        inp.job(kind="bpa", name=f"bpa-{name}", sub=a, sub2=b)
        if name in ("interval", "family1", "family2"):
            inp.job(kind="verify", name=f"verify-{name}", sub=a, sub2=b, n=10 ** 3)
    a, b = inp.pair("no_prefix", NO_PREFIX, reverse(NO_PREFIX))
    inp.job(kind="bpa", name="bpa-no-prefix", sub=a, sub2=b, cutoff=NO_PREFIX_CUTOFF)
    a, b = inp.pair("c8_large", *C8_LARGE)
    inp.job(kind="pairs", name="pairs-c8-large", sub=a, sub2=b, limits=C8_LIMITS)
    sample_pairs(inp)


WORKLOADS = {"draw": draw, "classify": classify, "bpa": bpa}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    inp = Inputs(random.Random(f"{args.workload}:{args.seed}"), args.out)
    WORKLOADS[args.workload](inp)
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(inp.manifest(), handle)


if __name__ == "__main__":
    main()
