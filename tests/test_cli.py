"""Command-line interface, exercised in process through main()."""

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from zetasieve import RepresentationKind, admissible_up_to
from zetasieve.admissible import MAX_LIMIT
from zetasieve.cli import main
from zetasieve.reference import reference_zeta
from zetasieve.representations import partial_sum_table

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestTerms:
    def test_plain_listing(self, capsys):
        code, out, err = run(capsys, "terms", "--n", "12")
        assert code == 0 and err == ""
        assert out.splitlines() == ["2", "3", "5", "6", "7", "10", "11", "12", "l=8"]

    def test_json_envelope(self, capsys):
        code, out, _ = run(capsys, "terms", "--n", "20", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["command"] == "terms"
        assert doc["parameters"] == {"n": 20}
        assert doc["payload"]["term_count"] == 15
        assert doc["payload"]["members"][:4] == [2, 3, 5, 6]

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_blocks_join_into_the_whole_rendering(self, capsys, as_json):
        # About 69 700 bases, several blocks: the output is byte for byte
        # the one-piece rendering of every base.
        n = 70_000
        aset = admissible_up_to(n)
        if as_json:
            payload = {"members": list(aset.members), "term_count": aset.term_count}
            doc = {"schema_version": "1", "command": "terms",
                   "parameters": {"n": n}, "payload": payload}
            want = json.dumps(doc, indent=2) + "\n"
        else:
            want = "\n".join(map(str, aset.members)) + f"\nl={aset.term_count}\n"
        code, out, err = run(capsys, "terms", "--n", str(n), *["--json"] * as_json)
        assert (code, err) == (0, "")
        assert out == want

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_a_long_listing_is_written_a_block_at_a_time(self, tmp_path, as_json):
        # Two million bases as one str each, or as Python ints, need more
        # than this cap; the int64 bases and one block of text do not.
        cap = 256 << 20
        n = 2 * 10**6
        path = tmp_path / "terms.out"

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        done = subprocess.run(
            [sys.executable, "-m", "zetasieve", "terms", "--n", str(n),
             "--out", str(path), *["--json"] * as_json],
            capture_output=True, text=True, check=False, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)}, preexec_fn=limit,
        )
        assert (done.returncode, done.stderr) == (0, "")
        count = admissible_up_to(n).term_count
        data = path.read_bytes()
        if as_json:
            head = b'"members": [\n      2,\n      3,\n      5,\n'
            tail = b"      2000000\n    ],\n    \"term_count\": %d\n  }\n}\n" % count
            lines = count + 12
        else:
            head, tail, lines = b"2\n3\n5\n", b"\n2000000\nl=%d\n" % count, count + 1
        assert head in data[:200] and data.endswith(tail)
        assert data.count(b"\n") == lines


class TestEval:
    def test_direct_plain_output_round_trips(self, capsys):
        code, out, _ = run(capsys, "eval", "--rep", "direct", "--z", "2,0", "--n", "6")
        assert code == 0
        fields = dict(line.split(" = ") for line in out.splitlines())
        assert float(fields["value_re"]) == 107.0 / 70.0
        assert float(fields["value_im"]) == 0.0
        assert fields["l"] == "4"
        assert float(fields["tail_bound"]) == 6.0 ** (1.0 - 2.0)
        assert float(fields["reference_delta"]) < float(fields["tail_bound"])

    def test_coth_single_term(self, capsys):
        code, out, _ = run(capsys, "eval", "--rep", "coth", "--z", "2,0", "--n", "2")
        assert code == 0
        fields = dict(line.split(" = ") for line in out.splitlines())
        assert abs(float(fields["value_re"]) - 4.0 / 3.0) <= 1e-15

    def test_negative_real_part_is_parsed(self, capsys):
        code, out, _ = run(capsys, "eval", "--rep", "direct", "--z", "-2,1", "--n", "6")
        assert code == 0
        fields = dict(line.split(" = ") for line in out.splitlines())
        # Re z <= 0: no tail bound, no reference comparison
        assert "tail_bound" not in fields
        assert "reference_delta" not in fields

    def test_json_matches_plain(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--rep", "bernoulli", "--z", "0.5,0", "--n", "6",
            "--order", "40", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["parameters"]["order"] == 40
        code, out, _ = run(capsys, "eval", "--rep", "direct", "--z", "0.5,0", "--n", "6")
        direct_re = float(dict(line.split(" = ") for line in out.splitlines())["value_re"])
        assert abs(doc["payload"]["value_re"] - direct_re) <= 1e-10
        assert doc["payload"]["tail_bound"] is None


class TestConverge:
    def test_csv_shape_and_soundness(self, capsys):
        code, out, _ = run(
            capsys, "converge", "--rep", "direct", "--z", "2,0",
            "--n-max", "1000", "--step", "100",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,value_re,value_im,abs_error,tail_bound"
        assert len(lines) == 11
        prev_err = None
        for line in lines[1:]:
            n, re_s, im_s, err_s, bound_s = line.split(",")
            err, bound = float(err_s), float(bound_s)
            assert err <= bound
            assert bound == pytest.approx(1.0 / int(n), rel=1e-15)
            if prev_err is not None:
                assert err <= prev_err * 1.05 + 1e-12
            prev_err = err

    def test_n_max_above_the_limit_is_refused_before_any_row(self):
        # Rows for n-max 1e10 would fill the memory before the base data
        # refused the n; the child's address space is capped so a
        # regression fails fast instead.
        cap = 512 << 20

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        done = subprocess.run(
            [sys.executable, "-m", "zetasieve", "converge", "--rep", "direct",
             "--z", "2,0", "--n-max", "10000000000", "--step", "1"],
            capture_output=True, text=True, check=False, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)}, preexec_fn=limit,
        )
        assert done.returncode == 2
        assert "n-max" in done.stderr

    def test_too_many_rows_are_refused_before_any_row(self):
        # 1e8 rows would need tens of GB; capped at 1 GiB, the child must
        # still exit 2 at once rather than run out of memory.
        cap = 1 << 30

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        done = subprocess.run(
            [sys.executable, "-m", "zetasieve", "converge", "--rep", "direct",
             "--z", "2,0", "--n-max", "100000000", "--step", "1"],
            capture_output=True, text=True, check=False, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)}, preexec_fn=limit,
        )
        assert done.returncode == 2
        assert "--step" in done.stderr and "--n-max" in done.stderr

    def test_row_cap_counts_the_rows_printed(self, capsys):
        # Step 2 up to 2e6 + 2 prints 1e6 + 1 rows, one over the cap.
        code, _, err = run(
            capsys, "converge", "--rep", "direct", "--z", "2,0",
            "--n-max", str(2 * 10**6 + 2), "--step", "2",
        )
        assert code == 2
        assert "1000001 rows" in err

    def test_alternating_error_shrinks(self, capsys):
        code, out, _ = run(
            capsys, "converge", "--rep", "alt", "--z", "2,0",
            "--n-max", "2000", "--step", "500",
        )
        assert code == 0
        errs = [float(line.split(",")[3]) for line in out.splitlines()[1:]]
        assert errs[-1] < errs[0]

    def test_empty_fields_when_undefined(self, capsys):
        # Re z <= 1: no tail bound column entry; Re z <= 0 also drops the
        # reference and leaves abs_error empty.
        code, out, _ = run(
            capsys, "converge", "--rep", "direct", "--z", "0.5,0",
            "--n-max", "20", "--step", "10",
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            assert line.split(",")[4] == ""
            assert line.split(",")[3] != ""
        code, out, _ = run(
            capsys, "converge", "--rep", "direct", "--z", "-3,1",
            "--n-max", "20", "--step", "10",
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            assert line.split(",")[3] == ""

    def test_seventeen_significant_digits(self, capsys):
        code, out, _ = run(
            capsys, "converge", "--rep", "direct", "--z", "2,0",
            "--n-max", "6", "--step", "6",
        )
        assert code == 0
        value = out.splitlines()[1].split(",")[1]
        assert float(value) == 107.0 / 70.0

    def test_cumulative_pass_matches_single_evaluations(self, capsys):
        from zetasieve import zeta_alt_coth_partial

        code, out, _ = run(
            capsys, "converge", "--rep", "alt-coth", "--z", "3,1",
            "--n-max", "40", "--step", "7",
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            n, re_s, im_s, _, bound_s = line.split(",")
            want = zeta_alt_coth_partial(complex(3, 1), int(n))
            assert complex(float(re_s), float(im_s)) == pytest.approx(
                want.value, abs=1e-13
            )
            assert float(bound_s) == pytest.approx(want.tail_bound, rel=1e-12)

    def test_bernoulli_rows(self, capsys):
        code, out, _ = run(
            capsys, "converge", "--rep", "bernoulli", "--z", "0.5,0",
            "--n-max", "6", "--step", "2", "--order", "30",
        )
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["2", "4", "6"]

    def test_bernoulli_rows_equal_the_evaluator_exactly(self, capsys):
        from zetasieve import zeta_bernoulli_partial

        z = complex(0.5, 0.3)
        code, out, _ = run(
            capsys, "converge", "--rep", "bernoulli", "--z", "0.5,0.3",
            "--n-max", "300", "--step", "23", "--order", "25",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 13
        for line in rows:
            n, re_s, im_s, _, _ = line.split(",")
            want = zeta_bernoulli_partial(z, int(n), 25).value
            assert complex(float(re_s), float(im_s)) == want

    def test_bernoulli_table_names_the_first_row_outside_the_disk(self, capsys):
        # |z| = 1 leaves the disk once r_max > e**(2*pi) ~ 535: the row at
        # n = 600 fails first, though the largest base at n-max is 999.
        code, out, err = run(
            capsys, "converge", "--rep", "bernoulli", "--z", "1,0",
            "--n-max", "1000", "--step", "100",
        )
        assert (code, out) == (3, "")
        assert "2*pi/log(600)" in err and "999" not in err

    @pytest.mark.parametrize("z", ["1e-7,0", "0,-1e-7"])
    def test_bernoulli_table_gates_the_pole_at_the_origin(self, capsys, z):
        code, out, err = run(
            capsys, "converge", "--rep", "bernoulli", "--z", z,
            "--n-max", "300", "--step", "30",
        )
        assert (code, out) == (3, "")
        assert "from the pole 2*pi*i*0/log(2)" in err

    @pytest.mark.parametrize(
        "order, message",
        [("-1", "M must be in [0, 199], got -1"), ("2.5", "--order"),
         ("500", "M must be in [0, 199], got 500")],
    )
    def test_bernoulli_table_rejects_bad_orders(self, capsys, order, message):
        code, out, err = run(
            capsys, "converge", "--rep", "bernoulli", "--z", "0.5,0",
            "--n-max", "300", "--step", "30", "--order", order,
        )
        assert (code, out) == (2, "")
        assert message in err

    # (z, n-max, step, error column, tail column) for the term-sum forms and
    # for the Bernoulli form, whose points must lie in its disk: all fields;
    # |Im z| >= 337 or Re z <= 0, where reference_zeta refuses; Re z <= 1.
    CSV_CASES = {
        "term-sum": [
            (complex(1.5, 7.0), 40_000, 1_333, True, True),
            (complex(1.5, 400.0), 40_000, 1_333, False, True),
            (complex(0.7, 14.0), 40_000, 1_333, True, False),
        ],
        "bernoulli": [
            (complex(1.05, 0.1), 300, 23, True, True),
            (complex(-0.5, 0.2), 300, 23, False, False),
            (complex(0.5, 0.3), 300, 23, True, False),
        ],
    }

    @pytest.mark.parametrize("case", range(3))
    @pytest.mark.parametrize("rep", [kind.value for kind in RepresentationKind])
    def test_csv_is_the_table_formatted(self, capsys, rep, case):
        # Byte for byte: each row of partial_sum_table at the same
        # truncations, with %.17g floats and a blank field where the
        # reference or the tail bound is undefined.
        forms = "bernoulli" if rep == "bernoulli" else "term-sum"
        z, n_max, step, has_error, has_tail = self.CSV_CASES[forms][case]
        code, out, err = run(
            capsys, "converge", "--rep", rep, "--z", f"{z.real!r},{z.imag!r}",
            "--n-max", str(n_max), "--step", str(step),
        )
        assert (code, err) == (0, "")
        ns = list(range(step, n_max + 1, step))
        rows = partial_sum_table(RepresentationKind(rep), z, n_max, ns, 40)
        reference = reference_zeta(z) if has_error else None
        lines = ["n,value_re,value_im,abs_error,tail_bound"]
        for row in rows:
            error = "" if reference is None else f"{abs(row.value - reference):.17g}"
            tail = "" if row.tail_bound is None else f"{row.tail_bound:.17g}"
            lines.append(
                f"{row.truncation},{row.value.real:.17g},{row.value.imag:.17g},"
                f"{error},{tail}"
            )
        assert out == "\n".join(lines) + "\n"
        fields = [line.split(",") for line in lines[1:]]
        assert {f[3] != "" for f in fields} == {has_error}
        assert {f[4] != "" for f in fields} == {has_tail}

    def test_rejects_empty_schedules(self, capsys):
        code, _, err = run(
            capsys, "converge", "--rep", "direct", "--z", "2,0",
            "--n-max", "1", "--step", "1",
        )
        assert code == 2 and "error:" in err
        code, _, err = run(
            capsys, "converge", "--rep", "direct", "--z", "2,0",
            "--n-max", "10", "--step", "0",
        )
        assert code == 2


class TestZeros:
    def test_preset_search_payload(self, capsys):
        code, out, _ = run(
            capsys, "zeros", "--preset", "paper-direct-3", "--region", "-2,2,-6,6",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "zeros"
        params = doc["parameters"]
        assert params["preset"] == "paper-direct-3"
        assert params["rep"] == "direct"
        assert params["n"] == 3
        assert params["constant"] == 1.0
        assert params["region"] == [-2.0, 2.0, -6.0, 6.0]
        assert params["grid"] == [40, 40]
        roots = doc["payload"]["roots"]
        assert len(roots) == 2
        for r in roots:
            assert abs(r["re"]) <= 1e-12
            assert abs(abs(r["im"]) - 2 * math.pi / math.log(6)) <= 1e-12
            assert r["verified"] is True
            assert r["winding"] == 1
            assert r["residual"] <= 1e-10
        assert roots[0]["conjugate_of"] == 1
        assert roots[1]["conjugate_of"] == 0

    def test_oversized_grid_is_refused_before_any_seed(self):
        # 9e8 seeds would fill the memory while the seed list was built; the
        # child's address space is capped so a regression fails fast.
        cap = 512 << 20

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        done = subprocess.run(
            [sys.executable, "-m", "zetasieve", "zeros", "--rep", "direct",
             "--n", "6", "--region", "0,1,0,1", "--grid", "30000,30000"],
            capture_output=True, text=True, check=False, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)}, preexec_fn=limit,
        )
        assert done.returncode == 2
        assert "seeds" in done.stderr and "MemoryError" not in done.stderr

    @pytest.mark.parametrize("n, cap", [(100_000_001, 1 << 30), (10**10, 512 << 20)])
    def test_target_above_the_cap_is_refused_before_any_base(self, n, cap):
        # A target takes n up to MAX_LIMIT, as the evaluators do; the
        # child's address space is capped so one that read base data past
        # the cap would fail fast.
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        done = subprocess.run(
            [sys.executable, "-m", "zetasieve", "zeros", "--rep", "direct",
             "--n", str(n), "--region=0,1,10,11", "--grid", "2"],
            capture_output=True, text=True, check=False, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)}, preexec_fn=limit,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == f"error: n must be in [2, {MAX_LIMIT}], got {n}\n"

    def test_region_above_the_height_limit_is_refused(self, capsys):
        code, out, err = run(
            capsys, "zeros", "--rep", "direct", "--n", "6",
            "--region=0,1,1.5e308,1.50000001e308", "--grid", "2",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: region (") and "2**28" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_the_height_limit_is_exact(self, capsys, sign):
        # A 3x3 grid over a side of 1: the nudged sides and the escape box
        # reach 2.5 past im_max, so 2**28 - 2.5 takes them to 2**28 exactly.
        for top, code_wanted in ((2.0**28 - 2.5, 0), (2.0**28 - 2.5 + 2.0**-24, 2)):
            lo, hi = sorted((sign * top, sign * (top - 1.0)))
            code, out, err = run(
                capsys, "zeros", "--rep", "direct", "--n", "6",
                f"--region=0,1,{lo!r},{hi!r}", "--grid", "3",
            )
            assert code == code_wanted
            if code:
                assert out == "" and len(err.splitlines()) == 1
            else:
                assert json.loads(out)["payload"]["roots"] == [] and err == ""

    @pytest.mark.parametrize(
        "region, grid",
        [
            ("-1e308,1e308,0,1", "2"),
            ("-1.5e308,0,0,1", "2"),
            ("0,1,-1.7e308,1.7e308", "40"),
            ("-2.5e307,0,0,1", "2"),
        ],
    )
    def test_region_whose_search_would_overflow_is_refused(self, capsys, region, grid):
        code, out, err = run(
            capsys, "zeros", "--rep", "direct", "--n", "6",
            f"--region={region}", "--grid", grid,
        )
        bounds = ", ".join(repr(float(b)) for b in region.split(","))
        assert code == 2 and out == ""
        assert err.startswith(f"error: region ({bounds}) is too large")
        assert len(err.splitlines()) == 1

    def test_explicit_target_with_constant(self, capsys):
        code, out, _ = run(
            capsys, "zeros", "--rep", "alt", "--n", "5", "--constant", "0.5",
            "--region", "-1,1,-2,2",
        )
        assert code == 0
        roots = json.loads(out)["payload"]["roots"]
        assert len(roots) == 2
        assert {round(r["im"], 6) for r in roots} == {0.719409, -0.719409}

    def test_empty_region_gives_empty_list(self, capsys):
        code, out, _ = run(
            capsys, "zeros", "--preset", "paper-direct-2", "--region", "-1,1,-1,1",
            "--grid", "12",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["roots"] == []
        assert doc["parameters"]["grid"] == [12, 12]

    def test_payload_is_thread_invariant(self, capsys):
        payloads = []
        for threads in ("1", "3"):
            code, out, _ = run(
                capsys, "zeros", "--preset", "paper-alt-3",
                "--region", "-2,2,-6,6", "--threads", threads,
            )
            assert code == 0
            doc = json.loads(out)
            payloads.append(json.dumps(doc["payload"]))
        assert payloads[0] == payloads[1]

    def test_preset_conflicts_with_explicit_target(self, capsys):
        code, _, err = run(
            capsys, "zeros", "--preset", "paper-alt-3", "--rep", "alt",
            "--n", "3", "--region", "-1,1,-1,1",
        )
        assert code == 2
        assert "not both" in err

    def test_missing_target_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "zeros", "--region", "-1,1,-1,1")
        assert code == 2

    def test_unknown_preset_rejected(self, capsys):
        code, _, err = run(
            capsys, "zeros", "--preset", "paper-direct-9", "--region", "-1,1,-1,1",
        )
        assert code == 2

    def test_malformed_region_rejected(self, capsys):
        code, _, err = run(
            capsys, "zeros", "--preset", "paper-direct-2", "--region", "-1,1,-1",
        )
        assert code == 2


class TestSpecial:
    def test_even_reports_euler_deviation(self, capsys):
        code, out, _ = run(capsys, "special", "--kind", "even", "--m", "1", "--n", "100")
        assert code == 0
        fields = dict(line.split(" = ") for line in out.splitlines())
        assert abs(float(fields["euler"]) - math.pi**2 / 6) <= 1e-12
        assert float(fields["deviation"]) <= 0.01

    def test_any_routes_to_the_plain_argument(self, capsys):
        code, out, _ = run(
            capsys, "special", "--kind", "any", "--m", "2", "--n", "6", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["value_re"] == pytest.approx(107 / 70, rel=1e-15)
        assert doc["payload"]["euler"] is None

    def test_odd_kind(self, capsys):
        code, out, _ = run(
            capsys, "special", "--kind", "odd", "--m", "1", "--n", "1000", "--json"
        )
        assert code == 0
        assert abs(json.loads(out)["payload"]["value_re"] - 1.2020569032) <= 1e-6

    def test_argument_below_two_rejected(self, capsys):
        code, _, err = run(capsys, "special", "--kind", "any", "--m", "1", "--n", "6")
        assert code == 2

    @pytest.mark.parametrize("kind", ["any", "even", "odd"])
    def test_argument_too_large_for_a_float_is_a_usage_error(self, capsys, kind):
        code, out, err = run(
            capsys, "special", "--kind", kind, "--m", "1" + "0" * 400, "--n", "10"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "too large for a float" in err
        assert err.count("\n") == 1


class TestExitCodes:
    def test_repeated_calls_in_one_process_match_fresh_processes(self, capsys):
        # main() builds its parser once per process; a usage error on the
        # way must not change what the calls after it print.
        calls = [
            ["eval", "--rep", "direct", "--z", "2,-1", "--n", "30"],
            ["eval", "--rep", "direct", "--n", "6"],
            ["eval", "--rep", "alt", "--z", "1,0", "--n", "6"],
            ["eval", "--rep", "direct", "--z", "2,-1", "--n", "30"],
        ]
        in_process = [run(capsys, *argv) for argv in calls]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        fresh = {}
        for argv in map(tuple, calls):
            if argv not in fresh:
                done = subprocess.run(
                    [sys.executable, "-m", "zetasieve", *argv],
                    capture_output=True, text=True, env=env, check=False,
                )
                fresh[argv] = (done.returncode, done.stdout, done.stderr)
        assert [code for code, _, _ in in_process] == [0, 2, 3, 0]
        assert in_process == [fresh[tuple(argv)] for argv in calls]

    def test_usage_error_from_argparse(self, capsys):
        assert run(capsys, "eval", "--rep", "direct", "--n", "6")[0] == 2

    def test_input_error_from_library(self, capsys):
        code, _, err = run(capsys, "terms", "--n", "1")
        assert code == 2
        assert err.startswith("error:")

    def test_domain_error_singular_prefactor(self, capsys):
        code, _, err = run(capsys, "eval", "--rep", "alt", "--z", "1,0", "--n", "6")
        assert code == 3
        assert "1 - 2**(1-z)" in err

    def test_domain_error_outside_convergence_disk(self, capsys):
        code, _, err = run(
            capsys, "eval", "--rep", "bernoulli", "--z", "2,0", "--n", "600"
        )
        assert code == 3
        assert "2*pi/log(600)" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--rep", "direct", "--n", "6", "--z", "0.5,1.05e308"],
            ["eval", "--rep", "coth", "--n", "6", "--z", "0.5,-1.5e308"],
            ["converge", "--rep", "alt", "--n-max", "6", "--step", "2",
             "--z", "0.5,1.05e308"],
        ],
    )
    def test_heights_above_the_limit_are_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: z = ") and "height limit" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--rep", "direct", "--n", "6"],
            ["eval", "--rep", "alt", "--n", "6"],
            ["converge", "--rep", "coth", "--n-max", "6", "--step", "2"],
        ],
    )
    def test_the_height_limit_is_exact(self, capsys, argv, sign):
        code, out, err = run(capsys, *argv, "--z", f"0.5,{sign}268435456")
        assert code == 0 and err == "" and "reference" not in out
        code, out, err = run(
            capsys, *argv, "--z", f"0.5,{sign}{math.nextafter(2.0**28, 3e8)!r}"
        )
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert "height limit" in err

    def test_a_point_above_the_reference_cap_has_no_reference(self, capsys):
        # At 0.5+1e6i the evaluator answers, but the reference would need
        # more than its 320-stage cap and stays out.
        code, out, err = run(
            capsys, "eval", "--rep", "direct", "--n", "3", "--z", "0.5,1e6"
        )
        assert code == 0 and err == ""
        assert "value_re" in out and "reference_delta" not in out
        code, out, err = run(
            capsys, "converge", "--rep", "direct", "--n-max", "4", "--step", "2",
            "--z", "0.5,1e6",
        )
        assert code == 0 and err == ""
        rows = out.splitlines()[1:]
        assert len(rows) == 2 and all(row.split(",")[3] == "" for row in rows)

    def test_domain_error_near_pole(self, capsys):
        code, _, err = run(capsys, "eval", "--rep", "direct", "--z", "0,0", "--n", "6")
        assert code == 3
        assert "pole" in err

    def test_a_closed_pipe_is_a_usage_error(self):
        # The reader leaves after ten bytes of a long output: one error
        # line, exit 2, and no traceback from the interpreter's last flush.
        child = subprocess.Popen(
            [sys.executable, "-m", "zetasieve", "terms", "--n", "2000000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert child.stdout.read(10) == b"2\n3\n5\n6\n7\n"
        child.stdout.close()
        assert child.wait(timeout=120) == 2
        err = child.stderr.read().decode()
        child.stderr.close()
        assert err == "error: cannot write output: [Errno 32] Broken pipe\n"

    def test_a_refusing_stream_in_process_is_a_usage_error(self, capsys):
        # A stream with no descriptor of its own keeps the exit code too.
        class Refusing(io.TextIOBase):
            def write(self, chunk):
                raise BrokenPipeError(32, "Broken pipe")

        with contextlib.redirect_stdout(Refusing()):
            code = main(["eval", "--rep", "direct", "--z", "2,0", "--n", "6"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: cannot write output: [Errno 32] Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_a_full_device_is_a_usage_error(self, unbuffered):
        # Buffered, the write fails at the flush; unbuffered, at the write.
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "zetasieve", "eval", "--rep", "direct",
                 "--z", "2,0", "--n", "100"],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": str(SRC),
                     "PYTHONUNBUFFERED": unbuffered},
            )
        assert done.returncode == 2
        assert done.stderr.startswith("error: cannot write output: [Errno 28]")
        assert len(done.stderr.splitlines()) == 1


class TestOutputFile:
    def test_out_writes_instead_of_printing(self, capsys, tmp_path):
        path = tmp_path / "members.txt"
        code, out, _ = run(capsys, "terms", "--n", "12", "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().splitlines()[-1] == "l=8"

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "value.txt"
        code, out, err = run(
            capsys, "eval", "--rep", "direct", "--z", "2,0", "--n", "6",
            "--out", str(path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_out_json_parses(self, capsys, tmp_path):
        path = tmp_path / "roots.json"
        code, out, _ = run(
            capsys, "zeros", "--preset", "paper-direct-2",
            "--region", "-1,1,-1,1", "--grid", "8", "--out", str(path),
        )
        assert code == 0 and out == ""
        doc = json.loads(path.read_text())
        assert doc["payload"]["roots"] == []
