import hashlib
import json
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import ModuleType

import pytest

import tuttekit
from tuttekit import cli, finitefield, lattice, verify
from tuttekit.cli import (
    EXIT_CAPACITY,
    EXIT_ERROR,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from tuttekit.errors import (
    AdmissibilityError,
    CapacityError,
    ExactDivisionError,
    StructureError,
    TutteKitError,
)
from tuttekit.genfun import extract_polynomial
from tuttekit.poly import MultiPoly
from tuttekit.root_systems import RootSystemSpec
from tuttekit.tables import fixture, parse_poly_terms
from tuttekit.verify import FAIL, CheckResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatting:
    def test_ascending_with_explicit_separators(self):
        p = parse_poly_terms("x^2+2y^2+4x+4y+3", ("x", "y"))
        assert str(p) == "3+4y+4x+2y^2+x^2"

    def test_negative_coefficients(self):
        p = parse_poly_terms("-48+32 q-9 q^2+q^3", ("q",))
        assert str(p) == "-48+32q-9q^2+q^3"

    def test_zero(self):
        assert str(MultiPoly.zero(("x", "y"))) == "0"


class TestCompute:
    def test_bruteforce_json(self, capsys):
        code, out, _ = run(
            capsys,
            "compute", "--system", "C:2:integer", "--method", "bruteforce",
            "--output", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        poly = MultiPoly.from_json_dict(payload["polynomial"])
        assert poly == parse_poly_terms("x^2+2y^2+4x+4y+3", ("x", "y"))
        assert payload["rank"] == 2

    @pytest.mark.parametrize("method", ["bruteforce", "genfun", "graphs", "finitefield"])
    def test_every_method_agrees(self, capsys, method):
        code, out, _ = run(
            capsys,
            "compute", "--system", "B:2:weight", "--method", method,
            "--output", "json",
        )
        assert code == EXIT_OK
        poly = MultiPoly.from_json_dict(json.loads(out)["polynomial"])
        assert poly == parse_poly_terms("3+4x+x^2+4y+2y^2", ("x", "y"))

    def test_method_all_reports_agreement(self, capsys):
        code, out, _ = run(capsys, "compute", "--system", "A:3:weight", "--method", "all")
        assert code == EXIT_OK
        assert "agreement: yes" in out

    def test_method_all_with_one_engine_skips_the_agreement(self, capsys):
        # B:8:integer: every engine but genfun stops at its capacity guard,
        # so there is nothing to compare with.
        code, out, _ = run(capsys, "compute", "--system", "B:8:integer", "--method", "all")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert (lines[0], lines[-1]) == (
            "B:8:integer [genfun]", "agreement: skip (only genfun ran)"
        )
        code, out, _ = run(
            capsys,
            "compute", "--system", "B:8:integer", "--method", "all", "--output", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert (payload["methods_run"], payload["agreement"]) == (["genfun"], None)

    @pytest.mark.parametrize("engine", list(verify.ENGINES))
    def test_method_all_names_the_one_engine_that_ran(self, monkeypatch, capsys, engine):
        def refuse(spec):
            raise CapacityError("refused")

        for other in verify.ENGINES:
            if other != engine:
                monkeypatch.setitem(verify.ENGINES, other, refuse)
        code, out, _ = run(capsys, "compute", "--system", "C:2:integer", "--method", "all")
        assert code == EXIT_OK
        assert out.splitlines()[-1] == f"agreement: skip (only {engine} ran)"

    def test_method_all_reaches_finitefield_on_d5_weight(self, capsys):
        # E = 4 and r = 5: the largest group counted is (Z/16)^5, inside the
        # point cap, so every engine runs.
        code, out, _ = run(
            capsys,
            "compute", "--system", "D:5:weight", "--method", "all", "--output", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert "finitefield" in payload["methods_run"]
        assert payload["agreement"] is True

    def test_bad_system_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compute", "--system", "E:6:integer")
        assert code == EXIT_USAGE
        assert "usage" in err

    # int() would read these as A:10 and B:-2.
    @pytest.mark.parametrize("system", ["A:1_0:weight", "B:-2:integer"])
    def test_malformed_rank_is_usage_error(self, capsys, system):
        code, out, err = run(capsys, "compute", "--system", system)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"usage: bad rank in system spec {system!r}\n"

    @pytest.mark.parametrize("method", [*verify.ENGINES, "all"])
    @pytest.mark.parametrize("system", ["A:1:root", "A:1:weight"])
    def test_a1_quotient_refused_by_every_method(self, capsys, method, system):
        code, out, err = run(capsys, "compute", "--system", system, "--method", method)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "usage: type A quotient coordinates need n >= 2\n"

    def test_capacity_exit_code(self, capsys):
        code, _, err = run(
            capsys, "compute", "--system", "B:8:integer", "--method", "graphs"
        )
        assert code == EXIT_CAPACITY

    def test_finitefield_cap_checked_before_counting(self, capsys, monkeypatch):
        # A7 weight: E = 7, r = d = 6, so the largest group (Z/42)^6, about
        # 5.5e9 points, exceeds the point cap.
        def refuse(*_):
            raise AssertionError("counted past the point cap")

        monkeypatch.setattr(finitefield, "_group_histogram", refuse)
        code, out, err = run(
            capsys, "compute", "--system", "A:7:weight", "--method", "finitefield"
        )
        assert (code, out) == (EXIT_CAPACITY, "")
        assert err.startswith("capacity:")

    def test_all_refused_when_every_engine_is(self, capsys, monkeypatch):
        def refuse(*_):
            raise CapacityError("refused")

        for method in list(verify.ENGINES):
            monkeypatch.setitem(verify.ENGINES, method, refuse)
        code, out, err = run(
            capsys, "compute", "--system", "C:2:integer", "--method", "all"
        )
        assert (code, out) == (EXIT_CAPACITY, "")
        assert err == "capacity: no method could run within its capacity guard\n"


class TestExitCodes:
    def test_success(self, capsys):
        code, _, err = run(capsys, "compute", "--system", "C:2:integer")
        assert (code, err) == (EXIT_OK, "")

    @pytest.mark.parametrize(
        "error,code,prefix",
        [
            (ExactDivisionError, EXIT_ERROR, "error:"),
            (AdmissibilityError, EXIT_ERROR, "error:"),
            (TutteKitError, EXIT_ERROR, "error:"),
            (CapacityError, EXIT_CAPACITY, "capacity:"),
            (StructureError, EXIT_USAGE, "usage:"),
        ],
    )
    def test_each_error_has_its_code(self, capsys, monkeypatch, error, code, prefix):
        def fail(*_):
            raise error("boom")

        monkeypatch.setitem(verify.ENGINES, "bruteforce", fail)
        got, out, err = run(capsys, "compute", "--system", "C:2:integer")
        assert got == code
        assert out == "" and err == f"{prefix} boom\n"

    def test_one_parser_serves_every_call(self, capsys):
        argv = ["compute", "--system", "C:2:integer", "--output", "json"]
        first = run(capsys, *argv)
        bad = run(capsys, "compute", "--system", "E:6:integer")
        again = run(capsys, *argv)
        assert bad[0] == EXIT_USAGE and bad[2].startswith("usage:")
        assert first[0] == EXIT_OK and again == first

    def test_a_command_loads_no_argparse_gettext_or_locale(self):
        # argparse's constructors call gettext, which imports locale; dataclasses
        # imports inspect, which imports ast, dis and tokenize.  Each costs start-up.
        src = str(Path(__file__).resolve().parents[1] / "src")
        slow = ("argparse", "gettext", "locale", "dataclasses", "inspect")
        code = (
            f"import sys; sys.path.insert(0, {src!r}); from tuttekit import cli; "
            'codes = [cli.main(["compute", "--method", "bruteforce", "--system", "C:2:integer"]), '
            'cli.main(["verify", "--system", "C:2:integer"])]; '
            f"print(*codes, [m for m in {slow!r} if m in sys.modules])"
        )
        done = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 0 []"

    def test_mismatch(self, capsys, monkeypatch):
        failed = [CheckResult("genfun-vs-bruteforce", FAIL)]
        monkeypatch.setattr(cli, "verify_system", lambda *_, **__: failed)
        code, out, _ = run(capsys, "verify", "--system", "C:2:integer")
        assert code == EXIT_MISMATCH
        assert "genfun-vs-bruteforce: fail" in out


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["tabel"],
            ["compute", "--system", "C:2:integer", "--bogus", "1"],
            ["compute", "--sys", "C:2:integer"],
            ["compute", "--system"],
            ["compute", "--system", "--output", "json"],
            ["compute"],
            ["compute", "--system", "C:2:integer", "--method", "fast"],
            ["compute", "--system", "C:2:integer", "--output", "xml"],
            ["table", "--lattice", "spin"],
            ["verify", "C:2:integer"],
            # int() reads each of these as a number.
            *(["table", "--max-n", n] for n in ["1_0", "+8", " 8", "8 ", "\u0668", "-", ""]),
            ["compute", "--system", "C:2:integer", "--order", "1_0"],
        ],
        ids=repr,
    )
    def test_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--output=json"],
            ["--output", "text", "--output", "json"],
            ["--output=text", "--output=json"],
        ],
    )
    def test_equals_form_and_last_value_wins(self, capsys, argv):
        base = ["compute", "--system", "C:2:integer"]
        assert run(capsys, *base, *argv) == run(capsys, *base, "--output", "json")

    def test_a_value_may_begin_with_a_dash(self, capsys):
        assert run(capsys, "table", "--max-n=-3") == run(capsys, "table", "--max-n", "-3")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_names_every_verb(self, capsys, flag):
        code, out, err = run(capsys, flag)
        assert (code, err) == (EXIT_OK, "")
        for verb in ["compute", "verify", "table", "invariants", "fixtures"]:
            assert f"tuttekit {verb}" in out

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_verb_help_names_every_flag(self, capsys, flag):
        code, out, err = run(capsys, "compute", flag)
        assert (code, err) == (EXIT_OK, "")
        for name in ["--system", "--method", "--order", "--output", *verify.ENGINES, "all"]:
            assert name in out
        assert "tuttekit verify" not in out

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["compute", "--system", "C:2:integer"]
        monkeypatch.setattr(sys, "argv", ["tuttekit", *argv])
        code = main()
        assert (code, *capsys.readouterr()) == run(capsys, *argv)


class TestVerify:
    def test_verify_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--system", "A:3:weight")
        assert code == EXIT_OK
        assert "fail" not in out

    def test_graph_dictionary_becomes_the_baseline(self, capsys, monkeypatch):
        # A census guard below its 25 vectors skips bruteforce and a refusing
        # genfun skips it too, so the graph dictionary is the first engine.
        def refuse(*_):
            raise CapacityError("genfun refused")

        monkeypatch.setattr(lattice, "DEFAULT_CAPACITY", 24)
        monkeypatch.setattr(verify, "extract_polynomial", refuse)
        code, out, _ = run(capsys, "verify", "--system", "B:5:integer")
        assert code == EXIT_OK
        assert "fail" not in out
        assert "genfun: skip (genfun refused)" in out
        assert "graph-dictionary: pass (taken as baseline)" in out

    def test_a9_cross_checks_genfun_against_the_graph_dictionary(self, capsys):
        # 36 vectors skip the census; genfun still runs at order n = 9.
        code, out, _ = run(capsys, "verify", "--system", "A:9:root")
        assert code == EXIT_OK
        assert "fail" not in out
        assert "genfun: pass (taken as baseline)" in out
        assert "graph-dictionary-vs-genfun: pass" in out

    def test_b5_integer_runs_every_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--system", "B:5:integer")
        assert code == EXIT_OK
        assert "fail" not in out and "skip" not in out
        assert "graph-dictionary-vs-bruteforce: pass" in out

    def test_genfun_expands_to_order_n(self, monkeypatch):
        orders = []

        def spy(req, n):
            orders.append(req.order)
            return extract_polynomial(req, n)

        monkeypatch.setattr(verify, "extract_polynomial", spy)
        results = verify.verify_system(RootSystemSpec("C", 3, "root"))
        assert orders == [3]
        assert CheckResult("genfun-vs-bruteforce", "pass") in results

    @pytest.mark.parametrize("order", ["1", "3", "12"])
    def test_compute_genfun_ignores_the_order(self, capsys, monkeypatch, order):
        orders = []

        def spy(req, n):
            orders.append(req.order)
            return extract_polynomial(req, n)

        monkeypatch.setattr(verify, "extract_polynomial", spy)
        argv = ["compute", "--method", "genfun", "--system", "B:3:weight"]
        code, out, _ = run(capsys, *argv, "--order", order)
        assert (code, orders) == (EXIT_OK, [3])
        assert out == run(capsys, *argv)[1]

    def test_verify_deterministic(self, capsys):
        _, first, _ = run(capsys, "verify", "--system", "C:2:root", "--output", "json")
        _, second, _ = run(capsys, "verify", "--system", "C:2:root", "--output", "json")
        assert first == second


class TestTable:
    def test_weight_rows_match_fixtures(self, capsys):
        code, out, _ = run(
            capsys, "table", "--lattice", "weight", "--max-n", "4", "--output", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        rows = {r["row"]: r for r in payload["rows"]}
        for row in ["A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D2", "D3", "D4"]:
            fx = fixture("weight-tutte", row)
            assert MultiPoly.from_json_dict(rows[row]["tutte"]) == fx.poly

    @pytest.mark.parametrize("lattice", ["integer", "root", "weight"])
    def test_rows_do_not_depend_on_max_n(self, capsys, lattice):
        # Each family series is expanded once at order max(8, max_n).
        argv = ["table", "--lattice", lattice, "--report", "tutte,char,ehrhart"]
        _, short, _ = run(capsys, *argv, "--max-n", "8")
        _, long, _ = run(capsys, *argv, "--max-n", "10")
        head = [line for line in long.splitlines() if int(line.split("\t")[0][1:]) <= 8]
        assert "\n".join(head) + "\n" == short
        assert len(head) == 4 * 7

    def test_char_ehrhart_report(self, capsys):
        code, out, _ = run(
            capsys, "table", "--max-n", "2", "--report", "char,ehrhart"
        )
        assert code == EXIT_OK
        assert "-2+q" in out and "1+2t" in out

    def test_each_row_lays_out_its_polynomials_twice(self, capsys, monkeypatch):
        # Once in the psi -> M transform, once for both x-marginals.
        calls = []
        rows = MultiPoly.rows

        def spy(self):
            calls.append(self)
            return rows(self)

        monkeypatch.setattr(MultiPoly, "rows", spy)
        code, out, _ = run(
            capsys, "table", "--lattice", "weight", "--max-n", "4", "--report",
            "tutte,char,ehrhart",
        )
        assert code == EXIT_OK
        assert len(out.splitlines()) == 12
        assert len(calls) == 2 * 12

    @pytest.mark.parametrize("max_n", ["1", "-3"])
    def test_max_n_below_two_is_a_usage_error(self, capsys, max_n):
        code, out, err = run(capsys, "table", "--max-n", max_n)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"usage: --max-n must be at least 2, got {max_n}\n"

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_a_failing_row_prints_nothing(self, capsys, monkeypatch, output):
        derive, calls = cli.derive_all, []

        def third_fails(t):
            calls.append(t)
            if len(calls) == 3:
                raise ExactDivisionError("boom")
            return derive(t)

        monkeypatch.setattr(cli, "derive_all", third_fails)
        got = run(capsys, "table", "--max-n", "4", "--output", output)
        assert got == (EXIT_ERROR, "", "error: boom\n")
        assert len(calls) == 3

    def test_rows_are_kept_only_as_printed_lines(self, capsys):
        # Holding every row's polynomials and then the whole payload's dict
        # tree peaked at 6.1 MiB here; the printed lines alone need about 1.1.
        argv = ["table", "--lattice", "weight", "--max-n", "12", "--report",
                "tutte,char,ehrhart", "--output", "json"]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert code == EXIT_OK and len(json.loads(out)["rows"]) == 4 * 11
        assert peak < 3 * 2**20

    # sha256 of the stdout of `table --lattice <lattice> --max-n 14 --report
    # tutte,char,ehrhart --output json`, computed at commit 95057f2, before
    # the series powers moved to Miller's recurrence.
    TABLE_14_SHA256 = {
        "weight": "5c24b7430609265483a22df55960d8418bc776e9243695297246995414cfe5fe",
        "integer": "e5ee0ecc1da8e0465692a8dc7b6786f6791642c9fdb97e21c5d5d36ef758e0d1",
        "root": "5ccefd676ef37cc66f3d09546e8778617fb0c89fc8306d8cb563dc3820b14148",
    }

    @pytest.mark.parametrize("lattice", sorted(TABLE_14_SHA256))
    def test_table_14_output_is_pinned(self, capsys, lattice):
        argv = ["table", "--lattice", lattice, "--max-n", "14", "--report",
                "tutte,char,ehrhart", "--output", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == self.TABLE_14_SHA256[lattice]


C2_INTEGER_INVARIANTS = """\
C:2:integer
characteristic: 8-6q+q^2
ehrhart: 1+6t+14t^2
poincare: 1+8q+15q^2
volume: 14
lattice_points: 21
interior_points: 9
toric_regions: 8
dm_dimension: 14
dpv_dimension: 21
"""

C4_WEIGHT_INVARIANTS_JSON = (
    '{"characteristic":{"terms":[{"coeff":"384","exps":[0]},'
    '{"coeff":"-400","exps":[1]},{"coeff":"140","exps":[2]},'
    '{"coeff":"-20","exps":[3]},{"coeff":"1","exps":[4]}],"vars":["q"]},'
    '"dm_dimension":3036,"dpv_dimension":4329,'
    '"ehrhart":{"terms":[{"coeff":"1","exps":[0]},{"coeff":"20","exps":[1]},'
    '{"coeff":"192","exps":[2]},{"coeff":"1080","exps":[3]},'
    '{"coeff":"3036","exps":[4]}],"vars":["t"]},'
    '"interior_points":2129,"lattice_points":4329,'
    '"poincare":{"terms":[{"coeff":"1","exps":[0]},{"coeff":"24","exps":[1]},'
    '{"coeff":"206","exps":[2]},{"coeff":"744","exps":[3]},'
    '{"coeff":"945","exps":[4]}],"vars":["q"]},'
    '"system":"C:4:weight","toric_regions":384,"volume":3036}\n'
)


class TestInvariantsVerb:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "invariants", "--system", "C:2:integer")
        assert code == EXIT_OK
        assert "volume: 14" in out
        assert "lattice_points: 21" in out
        assert "interior_points: 9" in out

    def test_text_output_is_pinned(self, capsys):
        assert run(capsys, "invariants", "--system", "C:2:integer") == (
            EXIT_OK, C2_INTEGER_INVARIANTS, ""
        )

    def test_json_output_is_pinned(self, capsys):
        argv = ["invariants", "--system", "C:4:weight", "--output", "json"]
        assert run(capsys, *argv) == (EXIT_OK, C4_WEIGHT_INVARIANTS_JSON, "")


class TestFixturesVerb:
    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "fixtures", "--output", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["fixtures"]) == 48
        for entry in payload["fixtures"]:
            MultiPoly.from_json_dict(entry["polynomial"])  # decodes cleanly

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_a_failing_fixture_prints_nothing(self, capsys, monkeypatch, output):
        lookup, calls = cli.fixture, []

        def tenth_fails(kind, row):
            calls.append(row)
            if len(calls) == 10:
                raise StructureError("boom")
            return lookup(kind, row)

        monkeypatch.setattr(cli, "fixture", tenth_fails)
        got = run(capsys, "fixtures", "--output", output)
        assert got == (EXIT_USAGE, "", "usage: boom\n")
        assert len(calls) == 10

    def test_partial_row_marked(self, capsys):
        _, out, _ = run(capsys, "fixtures")
        assert "B5 weight-tutte [partial]" in out


class TestPackage:
    def test_version_matches_pyproject(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        declared = re.search(r'^version = "([^"]+)"', pyproject.read_text(), re.M)
        assert tuttekit.__version__ == declared.group(1)

    def test_top_level_exports(self):
        # The error contract of `main`, plus the entry points the demos and
        # the README import from the top level; nothing else.
        exported = {
            name
            for name, value in vars(tuttekit).items()
            if not name.startswith("_") and not isinstance(value, ModuleType)
        }
        assert exported == {
            "AdmissibilityError", "CapacityError", "ExactDivisionError",
            "LatticeMembershipError", "PrecisionError", "SpanError",
            "StructureError", "TutteKitError",
            "GenFunRequest", "RootSystemSpec", "arithmetic_tutte_bruteforce",
            "build_config", "coboundary_from_tutte", "derive_all",
            "extract_polynomial", "graph_dictionary_tutte", "group_identity_holds",
            "master_census", "master_genfun_theorem", "multiplicity_lcm",
            "tutte_via_interpolation", "unsigned_census", "unsigned_genfun_theorem",
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--system", "C:2:integer", "--threads", "2"],
            ["verify", "--system", "C:2:integer", "--method", "all"],
            ["verify", "--system", "C:2:integer", "--primes", "2"],
            ["verify", "--system", "C:2:integer", "--order", "8"],
        ],
    )
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        code, _, _ = run(capsys, *argv)
        assert code == EXIT_USAGE
