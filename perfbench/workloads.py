"""Workload definitions: the job pools, their seeded cycles, and the digests
that check a job's output.

Every workload is a list of strata. A stratum holds a few job variants that
share the parameters the cost depends on (order, range length, index size,
trial count) and differ in the rest (random-matrix seed, s/p/q offsets, a
small index jitter, the convention). One cycle of a run takes one variant
from every stratum, chosen by the workload seed, in a seeded order. A run
therefore always covers the whole cost distribution, so its percentiles
and throughput barely depend on the seed, while the seed still changes
the inputs the program sees.

The pools are generated from ``POOL_SEED``, not from the workload seed, so
that each job's expected output can be committed once in ``goldens.json``
(see ``make_goldens.py``).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from random import Random

POOL_SEED = 2201_06269
VARIANTS = 3

WORKLOADS = ("prop1-sweep", "verify-large-r", "seq-range", "term-fast")

FAMILIES = ("cassini", "docagne", "vajda", "catalan", "gen-docagne")


@dataclass(frozen=True)
class Job:
    """One benchmark job: a CLI argv, or a ``term_fast(n, convention, k)``
    call when ``kind`` is ``"term_fast"``."""

    kind: str
    args: tuple

    @property
    def key(self) -> str:
        """Golden-file key: the job spelled out as a command line."""
        return " ".join([self.kind, *map(str, self.args)])


def _cli(*argv) -> Job:
    return Job("cli", tuple(str(a) for a in argv))


def _log_spread(rng: Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` values log-uniform over [lo, hi], one in each of ``count``
    equal bins of log size, so the spread is even rather than lumpy."""
    width = (math.log(hi) - math.log(lo)) / count
    return [round(math.exp(math.log(lo) + (i + rng.random()) * width))
            for i in range(count)]


def _jitter(rng: Random, value: int) -> int:
    """``value`` plus up to 2%: a different input at practically the same cost."""
    return value + rng.randrange(value // 50 + 1)


def _prop1_sweep(rng: Random) -> list[list[Job]]:
    # The ROADMAP baseline grid; the trial count changes how much det Q and
    # det(a) work repeats inside one job.
    strata = []
    for n in range(3, 6):
        for r in range(1, 7):
            for trials in (rng.randint(1, 4) for _ in range(6)):
                strata.append([
                    _cli("prop1", "--n", n, "--r", r, "--trials", trials,
                         "--seed", rng.randrange(10**6), "--format", "json")
                    for _ in range(VARIANTS)])
    return strata


def _family_flags(rng: Random, family: str) -> list:
    a, b = rng.randint(1, 4), rng.randint(1, 4)
    if family == "docagne":
        return ["--s", f"{a}..{a + 1}"]
    if family == "vajda":
        return ["--p", f"{a}..{a + 1}", "--q", b]
    if family == "catalan":
        return ["--p", f"{a}..{a + 1}"]
    if family == "gen-docagne":
        return ["--trials", 1, "--seed", rng.randrange(10**6)]
    return []


def _verify_large_r(rng: Random) -> list[list[Job]]:
    strata = []
    for family in FAMILIES:
        for n in range(2, 7):
            for r in _log_spread(rng, 1_000, 10_000, 4):
                strata.append([
                    _cli("verify", family, "--n", n, "--r", _jitter(rng, r),
                         *_family_flags(rng, family), "--format", "json")
                    for _ in range(VARIANTS)])
    return strata


def _seq_range(rng: Random) -> list[list[Job]]:
    strata = []
    for k in _log_spread(rng, 30, 5_000, 100):
        strata.append([])
        for _ in range(VARIANTS):
            kv = _jitter(rng, k)
            strata[-1].append(_cli("seq", "--n", rng.randint(2, 6), "--from", -kv,
                                   "--to", kv, "--format", "json"))
    return strata


def _same_cost_index(rng: Random, n: int, k: int) -> int:
    """An index whose distance from the seed block has the bit length and
    the number of set bits of ``k``'s, with its low byte's bits shuffled:
    binary powering then does the same products on operands of the same
    sizes."""
    e = k - n
    low = [(e >> i) & 1 for i in range(8)]
    rng.shuffle(low)
    return n + (e >> 8 << 8) + sum(bit << i for i, bit in enumerate(low))


def _term_fast(rng: Random) -> list[list[Job]]:
    strata = []
    for n in (2, 3, 6):
        for k in _log_spread(rng, 10_000, 200_000, 34):
            strata.append([
                Job("term_fast", (n, rng.choice(("classic", "paper")),
                                  _same_cost_index(rng, n, k)))
                for _ in range(VARIANTS)])
    return strata


_BUILDERS = {
    "prop1-sweep": _prop1_sweep,
    "verify-large-r": _verify_large_r,
    "seq-range": _seq_range,
    "term-fast": _term_fast,
}


def pool(workload: str) -> list[list[Job]]:
    """The workload's strata; the same on every call."""
    return _BUILDERS[workload](Random(f"{POOL_SEED}/{workload}"))


def cycle(strata: list[list[Job]], rng: Random) -> list[tuple[int, Job]]:
    """One variant per stratum, with the stratum's index, in a seeded order."""
    jobs = [(i, rng.choice(stratum)) for i, stratum in enumerate(strata)]
    rng.shuffle(jobs)
    return jobs


def report_digest(text: str) -> str:
    """SHA-256 of a CLI report with its ``timings_ms`` entry cut out.

    Reports are byte-identical across runs apart from ``timings_ms``, a flat
    object that ``canonical_json`` writes at indent 2; cutting it textually
    avoids parsing outputs of tens of megabytes.
    """
    start = text.find('\n  "timings_ms": {')
    if start >= 0:
        end = text.index("}", start) + 1
        text = text[:start] + text[end:]
    return hashlib.sha256(text.encode()).hexdigest()


def int_digest(value: int) -> str:
    """SHA-256 of an integer's two's-complement bytes, never its decimal
    form, whose conversion is quadratic in the digit count."""
    raw = value.to_bytes(value.bit_length() // 8 + 1, "big", signed=True)
    return hashlib.sha256(raw).hexdigest()
