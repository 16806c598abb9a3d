"""Benchmark inputs: the polynomial systems, the invocations of each
workload, and the seeded relabelling of variables and generators.

Everything here is plain text handling; the package under test is never
imported, so the runner process stays small next to the processes whose
peak RSS it measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SYSTEMS_DIR = ROOT / "systems"


@dataclass(frozen=True)
class System:
    """A ring declaration plus expanded polynomial expressions."""

    variables: tuple[str, ...]
    polys: tuple[str, ...]

    def text(self) -> str:
        return "ring: %s\npolys:\n%s\n" % (
            ", ".join(self.variables),
            "\n".join(self.polys),
        )


@dataclass(frozen=True)
class Relabelled:
    """A system whose variable and generator orders were permuted.

    ``gen_order[k]`` is the original index of the k-th generator of
    ``system``.  Variables keep their names, so only their order changes.
    """

    system: System
    gen_order: tuple[int, ...]


def read_system(path: Path) -> System:
    """Read a ``systems/*.sys`` file: ring line, then ``polys:`` lines."""
    variables = None
    polys = []
    in_polys = False
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_polys:
            polys.append(line)
        elif line.startswith("ring:"):
            variables = tuple(v.strip() for v in line[5:].split(","))
        elif line == "polys:":
            in_polys = True
    if variables is None or not polys:
        raise ValueError("%s is not a system file" % path)
    return System(variables, tuple(polys))


def _gr25_first6() -> System:
    """The first 6 of the 10 Pluecker minors of a generic 2x5 matrix."""
    variables = tuple("x1%d" % j for j in range(1, 6)) + tuple(
        "x2%d" % j for j in range(1, 6)
    )
    pairs = list(combinations(range(1, 6), 2))[:6]
    return System(
        variables,
        tuple("x1%d*x2%d - x1%d*x2%d" % (i, j, j, i) for i, j in pairs),
    )


def _sys_file(name: str, indices=None):
    """A ``systems/*.sys`` file, or some of its generators in its full ring."""

    def load() -> System:
        full = read_system(SYSTEMS_DIR / (name + ".sys"))
        if indices is None:
            return full
        return System(full.variables, tuple(full.polys[i] for i in indices))

    return load


# Constructions of tests/systems.py that have no systems/*.sys file.
_LITERAL = {
    "three_surfaces": System(
        ("x", "y", "z"),
        ("x^5 + y^3 + z^2 - 1", "x^2 + y^2 + z - 1", "x^6 + y^5 + z^3 - 1"),
    ),
    "sagbi_trio": System(("x", "y"), ("x", "x*y - y^2", "x^2*y")),
    "non_sagbi_trio": System(("x", "y"), ("x + y", "x*y", "x*y^2")),
}

SYSTEMS = {
    # Sullivant-Talaska lists each of its two dense cubics twice.
    "st_c4_repeat": _sys_file("sullivant_talaska_c4", (0, 2)),
    "st_c4_pair": _sys_file("sullivant_talaska_c4", (0, 1)),
    "minors_first7": _sys_file("minors_2x2_of_3x3", range(7)),
    "gr25_first6": _gr25_first6,
    "grassmannian_2_4": _sys_file("grassmannian_2_4"),
    "twisted_cubic": _sys_file("twisted_cubic"),
    "elementary_symmetric": _sys_file("elementary_symmetric"),
    "two_cone": _sys_file("two_cone"),
    # the constant, the nine coordinates and the first 2 or 3 2x2 minors
    **{
        "trunc%d" % n: _sys_file("truncation_variety", range(n))
        for n in (12, 13)
    },
    "principal_minors": _sys_file("principal_minors"),
    **{name: (lambda s=s: s) for name, s in _LITERAL.items()},
    # No LP and no criterion work: an invocation on it costs interpreter
    # start, package import, argparse, parse and report.
    "trivial": lambda: System(("x",), ("x",)),
}



@dataclass(frozen=True)
class Invocation:
    """One CLI call of a workload; the input arrives on stdin."""

    command: str
    system: str
    flags: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        return " ".join((self.command, self.system) + self.flags)

    @property
    def homogenized(self) -> bool:
        return "--homogenize-t" in self.flags

    def argv(self) -> list[str]:
        return [
            self.command, "--input", "-", "--format", "json", "--jobs", "1",
            *self.flags,
        ]


_NICER = ("--homogenize-t", "--criterion", "nicer")
_PREFERABLE = ("--homogenize-t", "--criterion", "preferable")

WORKLOADS = {
    # Class enumeration (orders + lp).  Sullivant-Talaska: dense generators,
    # one with a repeated support; minors: many binomials, a deep product.
    "enumerate": (
        Invocation("detect-gb", "st_c4_repeat"),
        Invocation("detect-gb", "st_c4_pair"),
        Invocation("detect-gb", "minors_first7"),
    ),
    # The per-class criterion (groebner, toric, sagbi) used three ways: all
    # classes, runs that may stop at a counterexample, and GB next to SAGBI.
    "criterion": (
        Invocation("detect-sagbi", "gr25_first6"),
        Invocation("detect-sagbi", "grassmannian_2_4"),
        Invocation("universal-sagbi", "grassmannian_2_4"),
        Invocation("universal-gb", "grassmannian_2_4"),
        Invocation("universal-sagbi", "twisted_cubic"),
        Invocation("detect-gb", "three_surfaces"),
        Invocation("detect-sagbi", "elementary_symmetric"),
        Invocation("detect-sagbi", "two_cone"),
        Invocation("detect-sagbi", "sagbi_trio"),
        Invocation("detect-sagbi", "non_sagbi_trio"),
    ),
    # Ranking geometry (lattice volume for nicer, Hilbert vectors for
    # preferable); enumeration is about a tenth of it.  Nicer on the first
    # 14 truncation generators costs 11-17 s depending on the relabelling
    # and preferable 2.3-2.5 s, too much to repeat often in a run, so the
    # truncation inputs stop at the first 13 generators.
    "rank": (
        Invocation("rank", "trunc12", _NICER),
        Invocation("rank", "trunc13", _NICER),
        Invocation("rank", "trunc13", _PREFERABLE),
        Invocation("rank", "principal_minors", _NICER),
        Invocation("rank", "principal_minors", _PREFERABLE),
    ),
}


def relabel(system: System, stream: str | None = None) -> Relabelled:
    """Permute the variable and generator orders at random, drawing from the
    named ``stream``; ``stream=None`` keeps both."""
    variables = list(system.variables)
    order = list(range(len(system.polys)))
    if stream is not None:
        rng = random.Random(stream)
        rng.shuffle(variables)
        rng.shuffle(order)
    return Relabelled(
        System(tuple(variables), tuple(system.polys[i] for i in order)),
        tuple(order),
    )


def stream(seed: int, system: str) -> str:
    """The name of the relabelling of one system in a run."""
    return "%d/%s" % (seed, system)
