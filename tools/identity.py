"""Print the package's results on a fixed set of inputs, exactly, one per line.

    python tools/identity.py > identity.txt

Run it in two checkouts and compare the outputs with cmp: a change that
keeps every result bit for bit prints the same bytes.  Each line is one
record: what was called, its arguments and its result.  Floats print as
float.hex, so signed zeros and the last bit show; a refusal prints as its
error class and message; the terms and converge commands' output, as
their exit code and sha256.  The last line counts the records.

It imports only numpy and the package from the checkout's src directory,
takes no options, and runs in well under a minute on a laptop.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import itertools
import math
import random
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import zetasieve as zs  # noqa: E402
from zetasieve import RepresentationKind as Kind  # noqa: E402
from zetasieve.admissible import base_logs_and_signs  # noqa: E402
from zetasieve.cli import main as cli_main  # noqa: E402
from zetasieve.representations import partial_sum_table  # noqa: E402

RECORDS = 0


def text(x) -> str:
    """x as exact text: floats as hex, containers and records by field, a
    target by its description."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, complex):
        return f"({x.real.hex()},{x.imag.hex()})"
    if isinstance(x, (list, tuple)):
        return "[" + " ".join(text(v) for v in x) + "]"
    if isinstance(x, zs.Target):
        return f"Target[{x.describe()}]"
    if dataclasses.is_dataclass(x):
        fields = (f"{f.name}={text(getattr(x, f.name))}" for f in dataclasses.fields(x))
        return type(x).__name__ + "{" + " ".join(fields) + "}"
    if isinstance(x, Kind):
        return x.value
    return repr(x)


def record(label: str, fn, *args) -> None:
    """Print label, the arguments and fn(*args), or the refusal it raised."""
    global RECORDS
    try:
        out = text(fn(*args))
    except zs.ZetaSieveError as exc:
        out = f"{type(exc).__name__}: {exc}"
    RECORDS += 1
    print(label, text(list(args)), "->", out)


def points(rng: random.Random, n: int) -> list[complex]:
    """Seeded points: both half planes, the real axis with either zero sign,
    far right and left where exp underflows, and next to term poles."""
    out = [
        complex(2.0, 0.0),
        complex(0.5, -0.0),
        complex(-1.5, 0.0),
        complex(-0.0, 3.0),
        complex(0.5, 14.134725),
        complex(400.0, 1.0),
        complex(-400.0, -1.0),
        complex(1.3, 7.0),
    ]
    for _ in range(n):
        out.append(complex(rng.uniform(-3.0, 3.0), rng.uniform(-40.0, 40.0)))
    for r in (2, 3, 5, 6, 7):
        k = rng.randrange(1, 6)
        pole = complex(0.0, 2.0 * math.pi * k / math.log(r))
        out.append(pole + complex(rng.choice((0.0, 1e-7, 3e-6)), 1e-9))
    return out


def evaluators(rng: random.Random) -> None:
    plain = (
        ("direct", zs.zeta_direct_partial),
        ("coth", zs.zeta_coth_partial),
        ("alt", zs.zeta_alt_partial),
        ("alt-coth", zs.zeta_alt_coth_partial),
    )
    for n in (2, 3, 5, 6, 12, 47, 150, 1000, 8193, 16385, 200_000):
        for z in points(rng, 6):
            for name, fn in plain:
                record(name, fn, z, n)
            for M in (0, 7, 40):
                record("bernoulli", zs.zeta_bernoulli_partial, z, n, M)
            for kind in (Kind.DIRECT, Kind.ALTERNATING):
                record("derivative_partial", zs.derivative_partial, kind, z, n)
            record("nearest_pole", zs.nearest_pole, z, n)


def tables(rng: random.Random) -> None:
    for kind in Kind:
        M = 7 if kind is Kind.BERNOULLI_SERIES else None
        for n_max in (6, 100, 5000, 40_000):
            for z in (complex(2.0, 1.0), complex(0.7, 14.0), complex(0.1, 0.05)):
                ns = sorted({rng.randrange(2, n_max + 1) for _ in range(12)} | {n_max})
                record("partial_sum_table", partial_sum_table, kind, z, n_max, ns, M)
        # Rows out of order with a repeat, and no rows, inside the Bernoulli
        # disk at both sizes: one block, and rows across three.
        for z, n_max, ns in (
            (complex(1.5, 0.5), 40, [40, 2, 13, 40, 25, 3]),
            (complex(0.1, 0.05), 40_000, [40_000, 2, 16_385, 40_000, 13_333, 3]),
        ):
            for rows in (ns, []):
                record("partial_sum_table", partial_sum_table, kind, z, n_max, rows, M)
    # The converge workload's Bernoulli tables, 100 evenly spaced rows at
    # M = 40, whose orders span several groups; rows longer than a group's
    # budget; and the top order.
    z = complex(0.3, 0.2)
    for n_max, M in ((5000, 40), (20_000, 40), (300_000, 40), (20_000, 199)):
        ns = list(range(n_max // 100, n_max + 1, n_max // 100))
        record("partial_sum_table", partial_sum_table, Kind.BERNOULLI_SERIES, z, n_max, ns, M)


def newton_in_box(target, seed, box):
    return zs.newton_refine(target, seed, box=box)


def targets(rng: random.Random) -> None:
    for kind in (Kind.DIRECT, Kind.ALTERNATING):
        for n in (2, 3, 5, 6, 9, 12, 47):
            t = zs.make_target(kind, n, rng.choice((1.0, 0.5, 0.0)))
            for z in points(rng, 10):
                record("value_and_derivative_at", t.value_and_derivative_at, z)
            for _ in range(12):
                seed = complex(rng.uniform(-2.0, 2.0), rng.uniform(-20.0, 20.0))
                record("newton_refine", zs.newton_refine, t, seed)
                box = (-1.0, 2.5, seed.imag - 6.0, seed.imag + 6.0)
                record("newton_refine box", newton_in_box, t, seed, box)
            for _ in range(12):
                center = complex(rng.uniform(-2.0, 2.0), rng.uniform(-20.0, 20.0))
                radius = rng.choice((0.01, 0.1, 0.3, 1.0))
                samples = rng.choice((8, 64, 256))
                record("winding_count", zs.winding_count, t, center, radius, samples)


def newton_outcomes() -> None:
    # Seeds that end in each outcome but escape and a root, which the random
    # seeds above do not reach.  Stagnation: far right, where |f'| < 1e-14.
    direct2 = zs.make_target(Kind.DIRECT, 2)
    for seed in (complex(50.0, 0.3), complex(50.0, -2.0)):
        record("newton_refine stagnation", zs.newton_refine, direct2, seed)
    # A pole: 1e-9 from a lattice pole, on and off the real axis.
    alt6 = zs.make_target(Kind.ALTERNATING, 6)
    lattice = 2.0 * math.pi / math.log(2.0)
    for seed in (1e-9 + lattice * 1j, -1e-9 + 3.0 * lattice * 1j, complex(1e-9, 0.0)):
        record("newton_refine pole", zs.newton_refine, alt6, seed)
    # The 60-step cap: two seeds of strip searches at n = 12, in their boxes.
    direct12 = zs.make_target(Kind.DIRECT, 12)
    for seed, lo in (
        (0.868836291913215 + 48.92005032235982j, 33.073896476205974),
        (-0.038461538461538464 + 45.0633052683371j, 31.37099757602941),
    ):
        box = (-1.0384615384615385, 2.5, lo, lo + 24.0)
        record("newton_refine max-iter", newton_in_box, direct12, seed, box)
    # The stuck path: roots near Im z = 1000, where a step below one ulp
    # leaves the point as it is; at the smaller tolerances the run spins
    # on the pair in hand to the cap, at the larger it polishes.
    direct6 = zs.make_target(Kind.DIRECT, 6)
    for seed in (
        complex(0.2265775093501481, 1000.2715108939617),
        complex(0.4970109674648444, 1001.9638976363392),
        complex(0.03340976182704302, 1003.1041811134118),
    ):
        for tol in (1e-15, 1e-14, 1e-13, 1e-12):
            record("newton_refine stuck", zs.newton_refine, direct6, seed, tol)


def values_on_circle(target, center, radius, samples):
    """Target.values_at on a circle sampled as winding_count samples it."""
    theta = np.linspace(0.0, 2.0 * math.pi, samples + 1)
    return target.values_at(center + radius * np.exp(1j * theta)).tolist()


def circles() -> None:
    # Right and left of Re z = 0, across it, centred on it, and far out on
    # either side, where exp underflows.
    rings = (
        (complex(1.5, 10.0), 0.5),
        (complex(-1.5, 5.0), 0.5),
        (complex(0.2, 7.0), 0.6),
        (complex(0.0, 14.0), 0.3),
        (complex(800.0, 3.0), 5.0),
        (complex(-800.0, -3.0), 5.0),
    )
    for kind in (Kind.DIRECT, Kind.ALTERNATING):
        for n in (6, 47, 200):
            t = zs.make_target(kind, n)
            for center, radius in rings:
                record("values_at", values_on_circle, t, center, radius, 32)


def searches() -> None:
    for name, t in zs.PRESETS.items():
        for bounds in ((-1.0, 1.0, -3.0, 3.0), (-2.0, 2.0, -12.0, 12.0)):
            region = zs.SearchRegion(*bounds, grid_re=24, grid_im=24)
            record(f"find_zeros {name}", zs.find_zeros, t, region)
    # Strip searches as the benchmark runs them: the default 40x40 grid on
    # a 1.5 x 12 strip right of the imaginary axis.
    for i in range(16):
        kind = (Kind.DIRECT, Kind.ALTERNATING)[i % 2]
        n = 6 + (i * 3) % 7
        t = round((i * 24.7) % 40.0, 3)
        region = zs.SearchRegion(0.0, 1.5, t, t + 12.0)
        record(f"find_zeros strip {kind.value} {n}", zs.find_zeros,
               zs.make_target(kind, n), region)
    # Larger n, toward the truncations the paper is about, on a small grid.
    for kind in (Kind.DIRECT, Kind.ALTERNATING):
        region = zs.SearchRegion(0.0, 1.0, 10.0, 13.0, grid_re=8, grid_im=8)
        record(f"find_zeros {kind.value} 200", zs.find_zeros,
               zs.make_target(kind, 200), region)
    # Small grids at n where the search's array kernel splits the terms into
    # blocks whose sums carry over: 36 seeds at n = 3000, and 16 at
    # n = 17000, with more terms than one block holds for a single point.
    for kind in (Kind.DIRECT, Kind.ALTERNATING):
        for n, grid in ((3000, 6), (17_000, 4)):
            region = zs.SearchRegion(0.0, 1.0, 10.0, 13.0, grid_re=grid, grid_im=grid)
            record(f"find_zeros batch {kind.value} {n}", zs.find_zeros,
                   zs.make_target(kind, n), region)
    # Seed grids with exact zeros: a 9x9 grid over a rectangle symmetric
    # about both axes has seeds on Re z = 0 and on Im z = 0.
    for name, t in zs.PRESETS.items():
        region = zs.SearchRegion(-2.0, 2.0, -8.0, 8.0, grid_re=9, grid_im=9)
        record(f"find_zeros axes {name}", zs.find_zeros, t, region)


def set_fields(n):
    aset = zs.admissible_up_to(n)
    return [repr(aset), aset.limit, aset.term_count, aset.powers.tolist(), aset.bases.tolist()]


def equal_and_hash_alike(a, b):
    return [a == b, hash(a) == hash(b)]


def sets() -> None:
    for n in (2, 3, 4, 8, 9, 12, 20, 47, 64, 100, 200):
        record("admissible_up_to", set_fields, n)
    # Sets made before the store grows past its largest n, and after.
    limits = (12, 100, 4000, 200_000)
    before = [zs.admissible_up_to(n) for n in limits]
    zs.admissible_up_to(300_000)
    made = before + [zs.admissible_up_to(n) for n in limits + (300_000,)]
    for a in made:
        for b in made:
            record("set == and hash", equal_and_hash_alike, a, b)


def target_terms(target):
    """A target's fields and the store's logs and signs its sum reads."""
    logs, signs = base_logs_and_signs(target.n)
    return [target.describe(), target.n, target.constant, logs.tolist(), signs.tolist()]


def terms_sha256(kind, n):
    logs, signs = base_logs_and_signs(n)
    return hashlib.sha256(text([kind, logs.tolist(), signs.tolist()]).encode()).hexdigest()


def target_fields() -> None:
    for kind in (Kind.DIRECT, Kind.ALTERNATING):
        for n in (6, 47, 200):
            for constant in (1.0, 0.5, -0.0):
                record("target terms", target_terms, zs.make_target(kind, n, constant))
        # The largest n below r = 9170, where math.log and np.log first
        # disagree: every log's bits are the same whichever log makes it.
        record("target terms sha256", terms_sha256, kind, 9169)


class Digest(io.TextIOBase):
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, chunk: str) -> int:
        self.sha.update(chunk.encode())
        return len(chunk)


def cli_digest(command, *argv):
    stream = Digest()
    with contextlib.redirect_stdout(stream):
        code = cli_main([command, *argv])
    return [code, stream.sha.hexdigest()]


terms_digest = functools.partial(cli_digest, "terms")
converge_digest = functools.partial(cli_digest, "converge")


def terms_outputs() -> None:
    for n in (2, 12, 1000, 70_000, 10**6):
        record("terms sha256", terms_digest, "--n", str(n))
        record("terms sha256", terms_digest, "--n", str(n), "--json")


def converge_outputs() -> None:
    def converge(rep, z, n_max, rows, *order):
        args = ("--rep", rep, "--z", z, "--n-max", str(n_max), "--step", str(n_max // rows))
        record("converge sha256", converge_digest, *args, *order)

    # The converge workload's tables: about 500 rows at n-max 1e5 and 5e5,
    # and 100 Bernoulli rows at 5e3 and 2e4, inside the disk, at M = 40 and
    # at the top order.
    for rep, z in (("direct", "1.5,7"), ("coth", "1.05,-23"), ("alt", "0.6,12"),
                   ("alt-coth", "1.7,-3.5")):
        for n_max in (100_000, 500_000):
            converge(rep, z, n_max, 500)
        # A blank error column above |Im z| = 337, where the reference
        # refuses, and a blank tail column at Re z <= 1.
        converge(rep, "1.5,400", 20_000, 97)
        converge(rep, "0.7,14", 20_000, 97)
    for n_max in (5000, 20_000):
        converge("bernoulli", "0.3,0.2", n_max, 100)
        converge("bernoulli", "0.3,0.2", n_max, 100, "--order", "199")
    # Both blank at Re z <= 0, and the Bernoulli form's blank tail column.
    for rep in ("direct", "coth"):
        converge(rep, "-0.5,3", 20_000, 97)
    converge("bernoulli", "-0.5,0.2", 300, 13)
    converge("bernoulli", "0.5,0.3", 300, 13)


def values_of_list(target, points):
    return target.values_at(points).tolist()


def edges() -> None:
    # The Bernoulli order at the top of its range and one past it, in the
    # evaluator and the table, and numpy's bool where a point goes, alone
    # and in a list.
    z = complex(0.5, 0.25)
    for M in (199, 200):
        record("bernoulli", zs.zeta_bernoulli_partial, z, 47, M)
        rows = [2, 47, 300]
        record("partial_sum_table", partial_sum_table, Kind.BERNOULLI_SERIES, z, 300, rows, M)
    record("direct", zs.zeta_direct_partial, np.True_, 6)
    target = zs.make_target(Kind.ALTERNATING, 12)
    record("values_at list", values_of_list, target, [0.5 + 1j, True])


def kernel_edges() -> None:
    # Points a target evaluates outside the plain cases above: imaginary
    # parts at the least subnormal and just below 2**-1030; real parts at
    # 24/log n and one ulp past it, past where r**z underflows, at 1e300
    # and where z*log r overflows; and a point of the gate strip
    # |Re z| <= 1e-6 that the gate clears.  Every sign of each part, on
    # targets with constants of either sign.
    tiny, below = 5e-324, math.nextafter(2.0**-1030, 0.0)
    for kind in (Kind.DIRECT, Kind.ALTERNATING):
        for n in (2, 12, 1000):
            reach = 24.0 / math.log(n)
            past = math.nextafter(reach, math.inf)
            xs = (reach, past, 0.5, 1100.0, 1e300, 1.7e308, 0.0)
            ys = (tiny, below, 0.7, 0.0)
            for constant in (1.0, -0.0):
                t = zs.make_target(kind, n, constant)
                for x in xs:
                    for y in ys:
                        for a, b in itertools.product((1, -1), repeat=2):
                            record("value_and_derivative_at edges",
                                   t.value_and_derivative_at, complex(a * x, b * y))
                record("value_and_derivative_at edges", t.value_and_derivative_at,
                       complex(5e-7, 1.0))
    # Newton from seeds on the real axis, whose iterates stay on it.
    for kind in (Kind.DIRECT, Kind.ALTERNATING):
        for n in (2, 3, 6, 12):
            t = zs.make_target(kind, n)
            for x in (-2.5, -0.7, 0.3, 0.9, 2.0):
                for seed in (complex(x, 0.0), complex(x, -0.0)):
                    record("newton_refine real axis", zs.newton_refine, t, seed)


def main() -> None:
    rng = random.Random(15)
    evaluators(rng)
    tables(rng)
    targets(rng)
    newton_outcomes()
    circles()
    searches()
    sets()
    target_fields()
    terms_outputs()
    converge_outputs()
    edges()
    kernel_edges()
    print("records", RECORDS)


if __name__ == "__main__":
    main()
