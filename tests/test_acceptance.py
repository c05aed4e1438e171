"""Acceptance suite: ten numbered criteria, one reported line each.

Each test prints exactly one CRITERION line (PASS, or FAIL with the failing
details) outside pytest's capture, then asserts.  Tolerances and time
budgets are enforced inline next to the checks they belong to.
"""

import json
import math
import random
import time

import numpy as np

from zetasieve import (
    RepresentationKind,
    SearchRegion,
    admissible_up_to,
    euler_even_zeta,
    find_zeros,
    make_target,
    pole_distance,
    reference_zeta,
    remainder_bound,
    zeta_alt_coth_partial,
    zeta_alt_partial,
    zeta_bernoulli_partial,
    zeta_coth_partial,
    zeta_direct_partial,
)
from zetasieve.admissible import _STORE
from zetasieve.cli import main

DIRECT = RepresentationKind.DIRECT
ALT = RepresentationKind.ALTERNATING


def report(capsys, number, description, failures):
    status = "PASS" if not failures else "FAIL"
    line = f"CRITERION {number:2d} {status}: {description}"
    if failures:
        line += " | " + "; ".join(failures[:5])
    with capsys.disabled():
        print(line)
    assert not failures, line


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_01_admissible_fixture(capsys):
    failures = []
    code = main(["terms", "--n", "12"])
    out = capsys.readouterr().out
    want = ["2", "3", "5", "6", "7", "10", "11", "12", "l=8"]
    if code != 0 or out.splitlines() != want:
        failures.append(f"terms --n 12 gave {out.splitlines()!r}")
    # Time the underlying operation cold (caches cleared), not a cached
    # second call.
    admissible_up_to.cache_clear()
    _STORE.clear()

    def core():
        aset = admissible_up_to(12)
        return "\n".join([str(r) for r in aset.members] + [f"l={aset.term_count}"])

    text, elapsed = timed(core)
    if text.splitlines() != want:
        failures.append(f"library listing gave {text.splitlines()!r}")
    if elapsed >= 1e-3:
        failures.append(f"took {elapsed * 1e3:.3f} ms (budget 1 ms)")
    report(capsys, 1, "admissible fixture n=12, exact match under 1 ms", failures)


def test_criterion_02_partition_property(capsys):
    failures = []

    def check():
        limit = 10**5
        counts = np.zeros(limit + 1, dtype=np.int64)
        members = admissible_up_to(limit).members
        counts[np.asarray(members)] += 1
        for r in members:
            if r * r > limit:
                break
            p = r * r
            while p <= limit:
                counts[p] += 1
                p *= r
        return counts

    counts, elapsed = timed(check)
    bad = np.flatnonzero(counts[2:] != 1)
    if bad.size:
        failures.append(f"{bad.size} integers miscovered, first {bad[0] + 2}")
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f} s (budget 5 s)")
    report(capsys, 2, "unique (base, exponent) for every m in [2, 1e5]", failures)


def test_criterion_03_identity_suite(capsys):
    failures = []

    def check():
        rng = random.Random(20260814)
        worst = 0.0
        checked = 0
        while checked < 200:
            z = complex(rng.uniform(0.01, 10.0), rng.uniform(-10.0, 10.0))
            # constraints: |z| <= 10, away from every term pole at n <= 200,
            # off the eta-prefactor zeros the alternating family divides by
            if abs(z) > 10.0 or pole_distance(z, 200) <= 0.1:
                continue
            if abs(1.0 - 2.0 ** (1.0 - z)) <= 1e-6:
                continue
            for n in (5, 50, 200):
                a = zeta_direct_partial(z, n).value
                b = zeta_coth_partial(z, n).value
                err = abs(a - b) / (1 + abs(a))
                worst = max(worst, err)
                if err > 1e-11:
                    failures.append(f"plain family z={z} n={n} err={err:.2e}")
                a = zeta_alt_partial(z, n).value
                b = zeta_alt_coth_partial(z, n).value
                err = abs(a - b) / (1 + abs(a))
                worst = max(worst, err)
                if err > 1e-11:
                    failures.append(f"alternating z={z} n={n} err={err:.2e}")
            checked += 1
        return worst

    worst, elapsed = timed(check)
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f} s (budget 10 s)")
    report(
        capsys,
        3,
        "coth == plain within 1e-11 relative, 200 z, n in {5,50,200},"
        f" both families (worst {worst:.2e})",
        failures,
    )


def test_criterion_04_tail_bound_soundness(capsys):
    failures = []

    def check():
        passed = 0
        for sigma in (1.5, 2.0, 3.0):
            want = reference_zeta(sigma)
            for n in (10, 100, 1000):
                got = zeta_direct_partial(float(sigma), n).value
                err = abs(got - want)
                bound = remainder_bound(n, sigma)
                if err <= bound:
                    passed += 1
                else:
                    failures.append(f"sigma={sigma} n={n}: {err:.3e} > {bound:.3e}")
        return passed

    passed, elapsed = timed(check)
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f} s (budget 5 s)")
    report(capsys, 4, f"remainder bound dominates true error, {passed}/9", failures)


def test_criterion_05_desk_scale_convergence(capsys):
    failures = []

    def check():
        basel = abs(zeta_direct_partial(2.0, 10**4).value - math.pi**2 / 6)
        if basel > 2e-4:
            failures.append(f"z=2: {basel:.3e} > 2e-4")
        apery = abs(zeta_direct_partial(3.0, 10**4).value - 1.2020569032)
        if apery > 1e-7:
            failures.append(f"z=3: {apery:.3e} > 1e-7")
        return basel, apery

    (basel, apery), elapsed = timed(check)
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f} s (budget 5 s)")
    report(
        capsys,
        5,
        f"n=1e4 partials: |zeta(2) err| = {basel:.2e}, |zeta(3) err| = {apery:.2e}",
        failures,
    )


def _search(kind, n, region, constant=1.0):
    target = make_target(kind, n, constant)
    return timed(lambda: find_zeros(target, region))


def _expect_pair(failures, label, roots, want, coord_tol=1e-4):
    """Exactly one conjugate pair, both coordinates within coord_tol of want."""
    if len(roots) != 2:
        failures.append(f"{label}: expected 2 roots, got {len(roots)}")
        return
    upper = max(roots, key=lambda r: r.location.imag).location
    if abs(upper.real - want.real) > coord_tol or abs(upper.imag - want.imag) > coord_tol:
        failures.append(f"{label}: {upper} not within {coord_tol} of {want}")
    for rec in roots:
        if not rec.verified or rec.residual > 1e-10:
            failures.append(f"{label}: unverified root {rec.location}")


def test_criterion_06_direct_family_zeros(capsys):
    failures = []
    budgets = []

    roots, dt = _search(DIRECT, 2, SearchRegion(-5, 5, -10, 10))
    budgets.append(dt)
    if roots:
        failures.append(f"n=2: expected no roots, got {len(roots)}")

    roots, dt = _search(DIRECT, 3, SearchRegion(-2, 2, -6, 6))
    budgets.append(dt)
    _expect_pair(failures, "n=3", roots, complex(0.0, 3.50671))

    # Isolating windows around the reported n=5 and n=6 pairs (the wider
    # [-2,2]x[-6,6] region contains further genuine zeros; the root-finder
    # tests pin the full inventories).
    roots, dt = _search(DIRECT, 5, SearchRegion(-1, 1, -3, 3))
    budgets.append(dt)
    _expect_pair(failures, "n=5", roots, complex(0.445959, 2.81436))

    roots, dt = _search(DIRECT, 6, SearchRegion(-1, 1, -3, 3))
    budgets.append(dt)
    _expect_pair(failures, "n=6", roots, complex(0.631214, 2.54663))

    for n, dt in zip((2, 3, 5, 6), budgets):
        if dt >= 30.0:
            failures.append(f"n={n} search took {dt:.1f} s (budget 30 s)")
    report(
        capsys, 6, "direct-family zeros at n=2,3,5,6 (1e-4 coordinates)", failures
    )


def test_criterion_07_alternating_family_zeros(capsys):
    failures = []

    roots, dt = _search(ALT, 2, SearchRegion(-1, 3, -20, 20))
    spacing = 2 * math.pi / math.log(2)
    ks = sorted(round(r.location.imag / spacing) for r in roots)
    if ks != [-2, -1, 0, 1, 2]:
        failures.append(f"n=2: lattice indices {ks} != [-2..2]")
    for rec in roots:
        want = complex(1.0, round(rec.location.imag / spacing) * spacing)
        if abs(rec.location - want) > 1e-8:
            failures.append(f"n=2: {rec.location} off lattice by > 1e-8")
        if not rec.verified or rec.residual > 1e-10:
            failures.append(f"n=2: unverified root {rec.location}")
    if dt >= 30.0:
        failures.append(f"n=2 search took {dt:.1f} s (budget 30 s)")

    roots, dt = _search(ALT, 5, SearchRegion(-1, 1, -2, 2), constant=0.5)
    _expect_pair(failures, "n=5", roots, complex(0.0, 0.719409))
    if dt >= 30.0:
        failures.append(f"n=5 search took {dt:.1f} s (budget 30 s)")

    roots, dt = _search(ALT, 6, SearchRegion(-1, 1, -1, 1))
    if len(roots) != 1 or roots[0].location.imag != 0.0:
        failures.append(f"n=6: expected the single real root, got {roots}")
    elif abs(roots[0].location.real - 0.465171) > 1e-4:
        failures.append(f"n=6: real root {roots[0].location.real} vs 0.465171")
    if dt >= 30.0:
        failures.append(f"n=6 search took {dt:.1f} s (budget 30 s)")

    roots, dt = _search(ALT, 3, SearchRegion(-2, 2, -6, 6))
    reals = [r for r in roots if r.location.imag == 0.0]
    if len(reals) != 1:
        failures.append(f"n=3: expected exactly one real root, got {len(reals)}")
    else:
        # Erratum: the write-up prints 0.523205, a miscopied digit of the
        # true root 0.5233052688527639564... of the n=3 numerator
        # 1 - 1/(2**x - 1) + 1/(3**x - 1) (40-digit mpmath, independent of
        # this package; see test_rootfind.TestAltThreeErratum).  There the
        # slope is about 1.98 and the numerator at 0.523205 is -1.98e-4, so
        # 0.523205 is no rounding of the root, and no nearby reading of the
        # write-up (constant 1/2, 3/2 or 2, bases {2, 3, 5}, plain eta
        # partial sums) has a root there.  The check uses the corrected
        # 6-digit value with the same 1e-4 tolerance as every printed value.
        delta = abs(reals[0].location.real - 0.523305)
        if delta > 1e-4:
            failures.append(
                f"n=3: real root {reals[0].location.real:.15f} is"
                f" {delta:.4e} from the corrected 0.523305 (tolerance 1e-4)"
            )
    if dt >= 30.0:
        failures.append(f"n=3 search took {dt:.1f} s (budget 30 s)")

    report(capsys, 7, "alternating-family zeros at n=2,3,5,6", failures)


def test_criterion_08_bernoulli_representation(capsys):
    failures = []

    def check():
        want = zeta_direct_partial(0.5, 6).value
        final = abs(zeta_bernoulli_partial(0.5, 6, 40).value - want)
        if final > 1e-10:
            failures.append(f"M=40 differs from direct by {final:.3e} > 1e-10")
        orders = (5, 10, 20, 40)
        errs = [
            abs(zeta_bernoulli_partial(0.5, 6, M).value - want) for M in orders
        ]
        floor = 10 * np.finfo(float).eps * (1 + abs(want))
        for i in range(1, len(errs)):
            if errs[i] > max(errs[i - 1], floor):
                failures.append(
                    f"error rose {errs[i - 1]:.3e} -> {errs[i]:.3e}"
                    f" at M={orders[i]}"
                )
        return errs

    errs, elapsed = timed(check)
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f} s (budget 1 s)")
    report(
        capsys,
        8,
        "Bernoulli series at z=0.5 n=6: M=40 within 1e-10, error monotone"
        f" over M=5,10,20,40 (final {errs[-1]:.2e})",
        failures,
    )


def test_criterion_09_euler_cross_check(capsys):
    failures = []

    def check():
        worst = 0.0
        for m in range(1, 7):
            err = abs(euler_even_zeta(m) - reference_zeta(2 * m))
            worst = max(worst, err)
            if err > 1e-9:
                failures.append(f"m={m}: {err:.3e} > 1e-9")
        return worst

    worst, elapsed = timed(check)
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f} s (budget 1 s)")
    report(
        capsys, 9, f"euler_even_zeta vs reference, m=1..6 (worst {worst:.2e})", failures
    )


def test_criterion_10_determinism(capsys):
    failures = []
    tails = []
    root_counts = []
    for threads in ("1", "2"):
        code = main(
            ["zeros", "--preset", "paper-direct-5", "--region", "-1,1,-3,3",
             "--threads", threads]
        )
        out = capsys.readouterr().out
        if code != 0:
            failures.append(f"threads={threads} exited {code}")
            continue
        root_counts.append(len(json.loads(out)["payload"]["roots"]))
        # raw bytes from the payload key to the end of the document; only
        # parameters.threads may differ between the two runs
        tails.append(out[out.index('"payload"'):])
    if len(tails) == 2 and tails[0] != tails[1]:
        failures.append("payload bytes differ between thread counts")
    if root_counts and root_counts[0] == 0:
        failures.append("search found nothing; determinism check is vacuous")
    report(
        capsys, 10, "zeros payload is byte-identical across thread counts", failures
    )
