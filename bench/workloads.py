"""The three workloads: seeded inputs, set-up, one op, and output checks.

Each workload is a closed loop with one caller.  Its inputs come only from
the seed; the package sees nothing but the generated arguments.  zetasieve
is imported inside ``setup`` so that the import is part of the measured
set-up time, and functions are looked up on their modules at call time so
that the traced run's wrappers are seen.

``check`` runs after the timed loop.  It returns, for every op that failed,
the list of reasons; an op with no entry passed.  Only the reason listed in
KNOWN_DEFECTS is a failure the package is already known to have.
"""

from __future__ import annotations

import importlib
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks

# Failures the package is known to have.
#   alt-coth-branch-constant: the printed even/odd alt-coth branch constant
#     differs from the exact 1 - s/2 at many truncations.
#   cumulative-rounding-beyond-tail: a converge row's error exceeds the
#     printed tail bound only through rounding in the running sum (the
#     evaluator at that n is within the bound): (2 - l)/2 + cumsum(coth)/2
#     cancels about log10(l) digits, and the bound does not allow for it.
KNOWN_DEFECTS = frozenset({"alt-coth-branch-constant", "cumulative-rounding-beyond-tail"})

ORDER = 40  # Bernoulli series order M
POLE_OFFSET = 1e-7  # distance of a near-pole op from its lattice pole
ZETA_ABS_IM = 50.0


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _spread(rng: random.Random, lo: float, hi: float):
    """Endless draws from [lo, hi) along a golden-ratio (Weyl) sequence from
    a seeded start: every prefix covers the range about evenly.

    This keeps the mix of input sizes the same from seed to seed and from
    one run length to another, so the latency percentiles measure the
    program rather than the luck of the draw.
    """
    u = rng.random()
    while True:
        yield lo + (hi - lo) * u
        u = (u + GOLDEN) % 1.0


def _strata(rng: random.Random, count: int):
    """Endless draws from [0, 1): each block of ``count`` takes every
    midpoint (k + 0.5) / count once, in the order of a golden-ratio sequence
    from a seeded start, so that every prefix covers the range about evenly.

    Unlike ``_spread``, a whole block is the same set for every seed, so
    percentiles over it do not move with the seed's start.
    """
    while True:
        start = rng.random()
        keys = [(start + k * GOLDEN) % 1.0 for k in range(count)]
        rank = {k: r for r, k in enumerate(sorted(range(count), key=keys.__getitem__))}
        for k in range(count):
            yield (rank[k] + 0.5) / count


def _package_error(outcome) -> str | None:
    if isinstance(outcome, Exception):
        return f"raised-{type(outcome).__name__}"
    return None


# --------------------------------------------------------------------------
# eval-large-n


EVALUATORS = {
    "direct": "zeta_direct_partial",
    "coth": "zeta_coth_partial",
    "alt": "zeta_alt_partial",
    "alt-coth": "zeta_alt_coth_partial",
    "bernoulli": "zeta_bernoulli_partial",
}

# One truncation is drawn in each band.  The windows are narrow (2%) so the
# per-op cost, and with it every latency, is the same for every seed; the
# drawn n still decides the admissible set and the alt-coth parity balance.
# Per float64 array: 0.16 MB, 1.6 MB and 9.6 MB, i.e. inside L2, about L2,
# and well beyond L2 on a 2 MiB-per-core part.
EVAL_BANDS = ((20_000, 20_400), (200_000, 204_000), (1_200_000, 1_224_000))

# A band's ops come in groups that check each other: a point z and its
# conjugate for two forms that must agree.
EVAL_GROUPS = (("direct", "coth"), ("alt", "alt-coth"), ("bernoulli",))


@dataclass(frozen=True)
class EvalOp:
    index: int
    form: str
    point: complex
    mirror: bool  # evaluate at conj(point)
    n: int
    group: tuple[int, int]  # (band, serial within band)
    pole: bool = False

    @property
    def z(self) -> complex:
        return self.point.conjugate() if self.mirror else self.point


class EvalLargeN:
    name = "eval-large-n"
    calibration = ("numpy", "python")  # run.py: kernels that match the work

    def __init__(self, seed: int, bands=EVAL_BANDS):
        rng = random.Random(f"eval-large-n:{seed}")
        self.seed = seed
        self.truncations = tuple(rng.randrange(lo, hi) for lo, hi in bands)

    def setup(self) -> None:
        self.rep = importlib.import_module("zetasieve.representations")
        reference = importlib.import_module("zetasieve.reference")
        for n in self.truncations:
            self.rep.nearest_pole(2.0, n)  # builds and caches the base data
        reference.reference_zeta(2.0)  # one-time self-check

    def ops(self):
        streams = [
            self._band_ops(band, n) for band, n in enumerate(self.truncations)
        ]
        index = 0
        while True:
            spec = next(streams[index % len(streams)])
            yield EvalOp(index, *spec)
            index += 1

    def _band_ops(self, band: int, n: int):
        rng = random.Random(f"eval-large-n:{self.seed}:{band}")
        serial = 0
        cycle = 0
        while True:
            for forms in EVAL_GROUPS:
                point = self._point(rng, forms[0], n)
                for form in forms:
                    for mirror in (False, True):
                        yield form, point, mirror, n, (band, serial)
                serial += 1
            if cycle % 2:  # about one op in 21 sits next to a pole
                form = list(EVALUATORS)[(cycle // 2) % len(EVALUATORS)]
                point = self._pole_point(rng, form, n)
                yield form, point, False, n, (band, serial), True
                serial += 1
            cycle += 1

    @staticmethod
    def _point(rng: random.Random, form: str, n: int) -> complex:
        im = rng.uniform(-ZETA_ABS_IM, ZETA_ABS_IM)
        if form == "direct":
            re = 0.0
            while abs(re) < 1e-3:  # keep clear of the pole lattice on Re z = 0
                re = rng.uniform(-2.0, 3.0)
            return complex(re, im)
        if form == "alt":
            return complex(rng.uniform(0.1, 3.0), im)
        # Bernoulli: inside 0.9 of the disk |z| log(n) < 2 pi, which lies
        # inside the true disk because the largest base is at most n.
        modulus = 0.9 * checks.TWO_PI / math.log(n) * rng.uniform(0.05, 1.0)
        theta = rng.uniform(0.0, checks.TWO_PI)
        return modulus * complex(math.cos(theta), math.sin(theta))

    @staticmethod
    def _pole_point(rng: random.Random, form: str, n: int) -> complex:
        if form == "bernoulli":  # the only pole inside the disk is z = 0
            theta = rng.uniform(0.0, checks.TWO_PI)
            return POLE_OFFSET * complex(math.cos(theta), math.sin(theta))
        while True:
            base = rng.randrange(2, n + 1)
            if not checks.is_perfect_power(base):
                break
        spacing = checks.TWO_PI / math.log(base)
        k = rng.randint(1, int(ZETA_ABS_IM / spacing)) * rng.choice((-1, 1))
        if form in ("alt", "alt-coth"):  # the alt family needs Re z > 0
            theta = rng.uniform(-1.2, 1.2)
        else:
            theta = rng.uniform(0.0, checks.TWO_PI)
        offset = POLE_OFFSET * complex(math.cos(theta), math.sin(theta))
        return complex(0.0, k * spacing) + offset

    def span_name(self, op: EvalOp) -> str:
        return EVALUATORS[op.form]

    def run(self, op: EvalOp):
        evaluate = getattr(self.rep, EVALUATORS[op.form])
        if op.form == "bernoulli":
            return evaluate(op.z, op.n, ORDER)
        return evaluate(op.z, op.n)

    def check(self, ops, outcomes) -> dict[int, list[str]]:
        from zetasieve.errors import PoleProximityError

        failures: dict[int, list[str]] = {}

        def fail(op, reason):
            if op.index >= 0:
                failures.setdefault(op.index, []).append(reason)

        groups: dict[tuple[int, int], dict] = {}
        for op, outcome in zip(ops, outcomes):
            if op.pole:
                if not isinstance(outcome, PoleProximityError):
                    fail(op, _package_error(outcome) or "pole-not-raised")
                continue
            groups.setdefault(op.group, {})[(op.form, op.mirror)] = (op, outcome)

        logs_by_n = {}
        for members in groups.values():
            first = next(iter(members.values()))[0]
            forms = next(f for f in EVAL_GROUPS if first.form in f)
            # A group cut short by the end of the loop is completed here,
            # untimed, so its ops can still be checked against each other.
            for form in forms:
                for mirror in (False, True):
                    if (form, mirror) not in members:
                        extra = replace(first, index=-1, form=form, mirror=mirror)
                        members[(form, mirror)] = (extra, _call(self.run, extra))
            if first.n not in logs_by_n:
                bases = checks.admissible_bases(first.n)
                logs_by_n[first.n] = np.log(bases.astype(np.float64))
            self._check_group(forms, members, logs_by_n[first.n], fail)
        return failures

    @staticmethod
    def _check_group(forms, members, logs, fail) -> None:
        from zetasieve.errors import ZetaSieveError
        from zetasieve.reference import reference_zeta

        values = {}
        for key, (op, outcome) in members.items():
            reason = _package_error(outcome)
            if reason:
                fail(op, reason)
            else:
                values[key] = outcome.value
        for form in forms:
            base, mirror = values.get((form, False)), values.get((form, True))
            if base is not None and mirror is not None:
                if not checks.conjugate_exact(base, mirror):
                    fail(members[(form, True)][0], "conjugate-symmetry")

        point = members[(forms[0], False)][0].point
        n = members[(forms[0], False)][0].n
        if forms == ("bernoulli",):
            if (forms[0], False) in values:
                d = 1.0 / np.expm1(point * logs)
                direct = 1.0 + complex(d.sum())
                tol = checks.laurent_tolerance(point, logs, ORDER)
                if abs(values[(forms[0], False)] - direct) > tol:
                    fail(members[(forms[0], False)][0], "bernoulli-vs-direct")
            return

        tol = checks.kernel_tolerance(point, logs)
        first, second = forms
        scale = 1.0
        if first == "alt":
            scale = 1.0 / abs(checks.eta_prefactor(point))
        for mirror in (False, True):
            z = point.conjugate() if mirror else point
            a, b = values.get((first, mirror)), values.get((second, mirror))
            if a is not None and z.real > 1.0:
                try:
                    want = reference_zeta(z)
                except ZetaSieveError:  # next to an eta zero: no oracle
                    want = None
                if want is not None:
                    bound = (
                        checks.tail_bound(n, z.real) * scale
                        + tol * scale
                        + checks.REFERENCE_ALLOWANCE * max(1.0, abs(want))
                    )
                    if abs(a - want) > bound:
                        fail(members[(first, mirror)][0], "reference-tail")
            if a is None or b is None:
                continue
            allowed = tol * scale + 16.0 * checks.EPS * (abs(a) + abs(b))
            if abs(b - a) <= allowed:
                continue
            reason = f"{second}-vs-{first}"
            if second == "alt-coth":
                printed, exact = (float(c) for c in checks.branch_constants(n))
                shift = (printed - exact) / checks.eta_prefactor(z)
                if printed != exact and abs(b - a - shift) <= allowed:
                    reason = "alt-coth-branch-constant"
            fail(members[(second, mirror)][0], reason)

    def sizes(self, ops) -> dict:
        l = len(checks.admissible_bases(max(self.truncations)))
        return {
            "truncations": list(self.truncations),
            "largest_term_count": l,
            "largest_base_array_bytes_computed": 8 * l,
            "largest_complex_temporary_bytes_computed": 16 * l,
        }


def _call(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # recorded as the op's outcome and checked
        return exc


# --------------------------------------------------------------------------
# converge-tables


CONVERGE_REPS = ("direct", "coth", "alt", "alt-coth", "bernoulli")
CONVERGE_N_MAX = (100_000, 500_000)  # about 500 rows each
CONVERGE_BERNOULLI_N_MAX = (5_000, 20_000)  # about 100 rows each
CONVERGE_ROUNDS = 20  # rounds of the five reps per block of sizes: 100 ops
CONVERGE_JITTER = 0.02  # share of the n-max range by which a round's ops differ


@dataclass(frozen=True)
class ConvergeOp:
    index: int
    rep: str
    z: complex
    n_max: int
    step: int
    sample_row: int  # row checked against the evaluator at its n

    def argv(self, out: Path) -> list[str]:
        return [
            "converge",
            "--rep",
            self.rep,
            "--z",
            f"{self.z.real!r},{self.z.imag!r}",
            "--n-max",
            str(self.n_max),
            "--step",
            str(self.step),
            "--out",
            str(out),
        ]


class ConvergeTables:
    name = "converge-tables"
    calibration = ("python",)

    def __init__(self, seed: int, out: Path, n_max=CONVERGE_N_MAX,
                 bernoulli_n_max=CONVERGE_BERNOULLI_N_MAX):
        self.seed = seed
        self.out = out
        self.ranges = {rep: n_max for rep in CONVERGE_REPS}
        self.ranges["bernoulli"] = bernoulli_n_max

    def setup(self) -> None:
        self.cli = importlib.import_module("zetasieve.cli")
        self.rep = importlib.import_module("zetasieve.representations")
        importlib.import_module("zetasieve.reference").reference_zeta(2.0)

    def ops(self):
        rng = random.Random(f"converge-tables:{self.seed}")
        # One size per round of the five reps, shared up to a small jitter
        # that still gives every op its own n-max.  Each block of rounds
        # takes the same sizes for every seed: the latency percentiles and
        # the sets the caches hold at once, and so the peak memory, then
        # depend on the program and not on the luck of the draw.
        sizes = _strata(rng, CONVERGE_ROUNDS)
        index = 0
        while True:
            rep = CONVERGE_REPS[index % len(CONVERGE_REPS)]
            if rep == CONVERGE_REPS[0]:
                size = next(sizes)
            lo, hi = self.ranges[rep]
            share = (1.0 - CONVERGE_JITTER) * size + CONVERGE_JITTER * rng.random()
            n_max = int(lo + (hi - lo) * share)
            step = n_max // (100 if rep == "bernoulli" else 500)
            im = rng.uniform(-30.0, 30.0)
            if rep in ("direct", "coth"):
                z = complex(rng.uniform(1.05, 2.0), im)
            elif rep in ("alt", "alt-coth"):
                z = complex(rng.uniform(0.2, 2.0), im)
            else:  # inside 0.9 of the disk at n-max, right half plane
                modulus = 0.9 * checks.TWO_PI / math.log(n_max) * rng.uniform(0.05, 1.0)
                theta = rng.uniform(-1.4, 1.4)
                z = modulus * complex(math.cos(theta), math.sin(theta))
            rows = n_max // step
            yield ConvergeOp(index, rep, z, n_max, step, rng.randrange(rows))
            index += 1

    def span_name(self, op: ConvergeOp) -> str:
        return "cli.main"

    def run(self, op: ConvergeOp):
        return self.cli.main(op.argv(self.out))

    def collect(self, op: ConvergeOp, outcome):
        """The op's output: its exit code and the table it wrote (then
        removed, so that nothing is left behind)."""
        if outcome != 0:
            return outcome
        text = self.out.read_text()
        self.out.unlink()
        return outcome, text

    def check(self, ops, outcomes) -> dict[int, list[str]]:
        failures = {}
        for op, outcome in zip(ops, outcomes):
            reasons = self._check_one(op, outcome)
            if reasons:
                failures[op.index] = reasons
        return failures

    def _check_one(self, op: ConvergeOp, outcome) -> list[str]:
        from zetasieve.errors import ZetaSieveError
        from zetasieve.reference import reference_zeta

        if isinstance(outcome, Exception):
            return [_package_error(outcome)]
        if not isinstance(outcome, tuple):
            return [f"exit-{outcome}"]
        lines = outcome[1].splitlines()
        want_ns = [k * op.step for k in range(1, op.n_max // op.step + 1)]
        if lines[:1] != ["n,value_re,value_im,abs_error,tail_bound"] or [
            int(line.split(",")[0]) for line in lines[1:]
        ] != want_ns:
            return ["rows"]
        rows = [line.split(",") for line in lines[1:]]
        reasons = []

        p = checks.eta_prefactor(op.z)
        scale = 1.0 / abs(p) if op.rep.startswith("alt") else 1.0
        ns = np.array(want_ns)
        printed, exact = checks.branch_constants(ns)
        try:
            want = reference_zeta(op.z)
        except ZetaSieveError:
            want = None
        for i, (n, _, _, err, tail) in enumerate(rows):
            if not tail:
                continue
            bound = float(tail)
            if abs(bound - checks.tail_bound(int(n), op.z.real) * scale) > 1e-12 * bound:
                reasons.append("tail-bound-value")
                break
            if not err or float(err) <= bound + checks.REFERENCE_ALLOWANCE:
                continue
            value = complex(float(rows[i][1]), float(rows[i][2]))
            reasons.append(self._explain_tail_failure(op, int(n), value, want, bound, printed[i] - exact[i]))
            break

        n, re, im = rows[op.sample_row][:3]
        value = complex(float(re), float(im))
        evaluator = getattr(self.rep, EVALUATORS[op.rep])
        try:
            if op.rep == "bernoulli":
                if evaluator(op.z, int(n), ORDER).value != value:
                    reasons.append("sample-row")
            else:
                logs = np.log(checks.admissible_bases(int(n)).astype(np.float64))
                tol = checks.cumulative_tolerance(op.z, logs) * scale
                if abs(evaluator(op.z, int(n)).value - value) > tol:
                    reasons.append("sample-row")
        except ZetaSieveError as exc:
            reasons.append(_package_error(exc))
        return reasons

    def _explain_tail_failure(self, op, n, value, want, bound, constant_gap) -> str:
        """Reason for a row whose error exceeds its printed tail bound."""
        if want is None:
            return "converge-tail-bound"
        allowed = bound + checks.REFERENCE_ALLOWANCE
        p = checks.eta_prefactor(op.z)
        if op.rep == "alt-coth" and abs(value - constant_gap / p - want) <= allowed:
            return "alt-coth-branch-constant"
        evaluated = getattr(self.rep, EVALUATORS[op.rep])(op.z, n).value
        logs = np.log(checks.admissible_bases(n).astype(np.float64))
        scale = 1.0 / abs(p) if op.rep.startswith("alt") else 1.0
        if (
            abs(evaluated - want) <= allowed
            and abs(value - evaluated) <= checks.cumulative_tolerance(op.z, logs) * scale
        ):
            return "cumulative-rounding-beyond-tail"
        return "converge-tail-bound"

    def sizes(self, ops) -> dict:
        largest = max(op.n_max for op in ops)
        l = len(checks.admissible_bases(largest))
        return {
            "largest_n_max": largest,
            "largest_term_count": l,
            "largest_base_array_bytes_computed": 8 * l,
            "largest_complex_temporary_bytes_computed": 16 * l,
        }


# --------------------------------------------------------------------------
# zeros-strip


ZEROS_N = (6, 12)  # inclusive
ZEROS_T = (0.0, 40.0)
ZEROS_HEIGHT = 12.0
ZEROS_TOL = 1e-10
ZEROS_RERUN_EVERY = 4  # one op in each block of 4 is rerun at threads=2


@dataclass(frozen=True)
class ZerosOp:
    index: int
    kind: str  # "direct" | "alt"
    n: int
    t: float
    rerun: bool  # rerun at threads=2 and compare bytes


def fingerprint(roots) -> tuple:
    """Everything find_zeros returns, exactly (floats as hex)."""
    return tuple(
        (
            r.location.real.hex(),
            r.location.imag.hex(),
            r.residual.hex(),
            r.verified,
            r.conjugate_of,
            r.winding,
        )
        for r in roots
    )


class ZerosStrip:
    name = "zeros-strip"
    calibration = ("python",)

    def __init__(self, seed: int, n_range=ZEROS_N):
        self.seed = seed
        self.n_range = n_range

    def setup(self) -> None:
        self.rootfind = importlib.import_module("zetasieve.rootfind")
        self.rep = importlib.import_module("zetasieve.representations")
        importlib.import_module("zetasieve.reference").reference_zeta(2.0)

    def ops(self):
        rng = random.Random(f"zeros-strip:{self.seed}")
        lo, hi = self.n_range
        heights = _spread(rng, *ZEROS_T)
        truncations = {k: _spread(rng, lo, hi + 1) for k in ("direct", "alt")}
        index = 0
        while True:
            rerun = rng.randrange(ZEROS_RERUN_EVERY)
            for j in range(ZEROS_RERUN_EVERY):
                kind = ("direct", "alt")[index % 2]
                yield ZerosOp(index, kind, int(next(truncations[kind])), next(heights), j == rerun)
                index += 1

    def span_name(self, op: ZerosOp) -> str:
        return "find_zeros"

    def region(self, op: ZerosOp):
        return self.rootfind.SearchRegion(0.0, 1.5, op.t, op.t + ZEROS_HEIGHT)

    def run(self, op: ZerosOp, threads: int = 1):
        rf = self.rootfind
        kind = self.rep.RepresentationKind(op.kind)
        return rf.find_zeros(rf.make_target(kind, op.n), self.region(op), threads=threads)

    def check(self, ops, outcomes) -> dict[int, list[str]]:
        failures = {}
        for op, outcome in zip(ops, outcomes):
            reasons = self._check_one(op, outcome)
            if reasons:
                failures[op.index] = reasons
        return failures

    def _check_one(self, op: ZerosOp, roots) -> list[str]:
        from zetasieve.errors import ZetaSieveError

        if isinstance(roots, Exception):
            return [_package_error(roots)]
        reasons = []
        region = self.region(op)
        # find_zeros may widen the region by one grid cell on a side a pole
        # touches (the Re z = 0 side always has poles).
        cell_re = (region.re_max - region.re_min) / (region.grid_re - 1)
        cell_im = (region.im_max - region.im_min) / (region.grid_im - 1)
        evaluate = getattr(self.rep, EVALUATORS[op.kind])
        keys = [(r.location.imag, r.location.real) for r in roots]
        if keys != sorted(keys):
            reasons.append("order")
        for r in roots:
            z = r.location
            if not (
                region.re_min - cell_re <= z.real <= region.re_max + cell_re
                and region.im_min - cell_im <= z.imag <= region.im_max + cell_im
            ):
                reasons.append("outside-region")
            if r.conjugate_of is not None and not (
                0 <= r.conjugate_of < len(roots)
                and roots[r.conjugate_of].location == z.conjugate()
            ):
                reasons.append("conjugate-link")
            try:
                if op.kind == "direct":
                    value = evaluate(z, op.n).value
                elif z.real > 0.0:
                    value = evaluate(z, op.n).value * checks.eta_prefactor(z)
                else:  # outside the alt evaluator's domain Re z > 0
                    value = checks.numerator(z, op.n, alternating=True)
            except ZetaSieveError as exc:
                reasons.append(_package_error(exc))
                continue
            residual = abs(value)
            if abs(residual - r.residual) > 1e-12 + 1e-9 * r.residual or (
                r.verified and residual > ZEROS_TOL + 1e-12
            ):
                reasons.append("residual")
        if op.rerun:
            try:
                again = self.run(op, threads=2)
            except ZetaSieveError as exc:
                again = exc
            if isinstance(again, Exception) or fingerprint(again) != fingerprint(roots):
                reasons.append("threads-2-differs")
        return sorted(set(reasons))

    def sizes(self, ops) -> dict:
        l = len(checks.admissible_bases(self.n_range[1]))
        return {
            "largest_n": self.n_range[1],
            "largest_term_count": l,
            "largest_base_array_bytes_computed": 8 * l,
        }


WORKLOADS = {w.name: w for w in (EvalLargeN, ConvergeTables, ZerosStrip)}
