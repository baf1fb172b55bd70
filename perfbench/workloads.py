"""Workload definitions: finite case catalogues and seeded, stratified rounds.

Every case a seed can draw comes from a finite catalogue, so each one has a
golden outcome recorded at the seed commit (see ``record_golden.py``).  A run
is a sequence of rounds; a round holds one case per stratum, so every run has
the same mix of curve families and commands whatever the seed, and only the
draws inside each stratum (curve seed, shape, base parameter) vary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

LARGE_M = 65536
SMALL_M = 4096

SHAPES_LARGE = ((60, 60, 60), (90, 45, 45), (50, 60, 70))
SHAPES_CLI = ((60, 60, 60), (90, 45, 45), (50, 60, 70), (30, 60, 90), (110, 35, 35))
FOURIER_SEEDS = (0, 1, 2, 3)
BASES_SIMILAR_LARGE = (0.0, 0.25, 0.5, 0.75)
BASES = tuple(k / 8 for k in range(8))


@dataclass(frozen=True)
class Case:
    """One solve: ``command`` is ``similar`` or ``equilateral``; ``via`` is
    ``lib`` (a direct library call) or ``cli`` (an in-process ``cli.run``)."""

    via: str
    command: str
    generator: str
    params: tuple  # sorted (name, value) pairs for the generator
    samples: int
    angles: tuple | None
    base: float

    @property
    def curve_key(self):
        return (self.generator, self.params, self.samples)

    @property
    def gen_spec(self):
        items = [self.generator] + [f"{k}={v}" for k, v in self.params]
        return "gen:" + ",".join(items + [f"samples={self.samples}"])

    @property
    def key(self):
        angles = "-" if self.angles is None else ",".join(str(a) for a in self.angles)
        return f"{self.via}|{self.command}|{self.gen_spec}|{angles}|{self.base!r}"

    def cli_argv(self, out_path):
        name = "solve-similar" if self.command == "similar" else "solve-equilateral"
        argv = [name, "--curve", self.gen_spec, "--base", repr(self.base)]
        if self.angles is not None:
            argv += ["--angles", ",".join(str(a) for a in self.angles)]
        return argv + ["--no-timing", "--out", out_path]


def _cases(via, command, generator, samples, param_sets, shapes, bases):
    """A stratum: cases sharing a curve family and a command."""
    return [
        Case(via, command, generator, tuple(sorted(p.items())), samples, shape, float(b))
        for p in param_sets
        for shape in shapes
        for b in bases
    ]


def _fourier():
    return [{"seed": s} for s in FOURIER_SEEDS]


CLI_CURVES = (
    ("circle", [{}]),
    ("ellipse", [{}]),
    ("fourier", _fourier()),
    ("tilted_circle_nd", [{"n": 3}]),
    ("trefoil", [{}]),
    ("polygon", [{"sides": 5}]),
    ("corner_wedge", [{}]),
    ("u_turn", [{}]),
)


def _strata(name):
    if name == "similar-large":
        return [
            _cases("lib", "similar", "fourier", LARGE_M, _fourier(), SHAPES_LARGE,
                   BASES_SIMILAR_LARGE),
            _cases("lib", "similar", "tilted_circle_nd", LARGE_M, [{"n": 6}],
                   SHAPES_LARGE, BASES_SIMILAR_LARGE),
        ]
    if name == "equilateral-large":
        return [
            _cases("lib", "equilateral", gen, LARGE_M, params, [None], BASES)
            for gen, params in (
                ("fourier", _fourier()),
                ("ellipse", [{}]),
                ("tilted_circle_nd", [{"n": 6}]),
                ("trefoil", [{}]),
            )
        ]
    if name == "cli-small":
        # Two similar draws per equilateral one: an equilateral call is about
        # five times cheaper, and an even mix would put the median solve time
        # on the gap between the two clusters.
        strata = []
        for gen, params in CLI_CURVES:
            similar = _cases("cli", "similar", gen, SMALL_M, params, SHAPES_CLI, BASES)
            strata += [similar, similar]
            strata.append(_cases("cli", "equilateral", gen, SMALL_M, params, [None], BASES))
        # Cases every round runs: a continuum of answers (the right-angle
        # corner at the base admits a whole family of right isosceles
        # triangles) and the documented no-result of the folded u_turn.
        strata.append([Case("cli", "similar", "corner_wedge", (), SMALL_M, (90, 45, 45), 0.0)])
        strata.append([Case("cli", "equilateral", "u_turn", (), SMALL_M, None, 0.0)])
        return strata
    raise KeyError(name)


WORKLOADS = ("similar-large", "cli-small", "equilateral-large")


def catalogue(name):
    """Every case the workload can draw, without duplicates, in a fixed order."""
    seen = {}
    for stratum in _strata(name):
        for case in stratum:
            seen.setdefault(case.key, case)
    return list(seen.values())


def rounds(name, seed):
    """Endless seeded sequence of rounds, one case per stratum."""
    strata = _strata(name)
    rng = random.Random(f"{name}:{seed}")
    while True:
        yield [rng.choice(stratum) for stratum in strata]
