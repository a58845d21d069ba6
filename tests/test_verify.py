import inspect
import json

import pytest

from tuttekit import finitefield, lattice, tutte, verify
from tuttekit.cli import COMMANDS, EXIT_MISMATCH, EXIT_OK, main
from tuttekit.errors import CapacityError
from tuttekit.invariants import derive_all
from tuttekit.poly import MultiPoly
from tuttekit.root_systems import RootSystemSpec, build_config, parse_system
from tuttekit.signed_graphs import graph_dictionary_tutte
from tuttekit.tutte import TUTTE_VARS, TuttePolynomial, arithmetic_tutte_bruteforce
from tuttekit.verify import FAIL, PASS, SKIP, CheckResult, verify_system

SMALL_SYSTEMS = [
    RootSystemSpec(family, n, kind)
    for family, ranks in (("A", (2, 3, 4)), ("B", (1, 2, 3, 4)), ("C", (1, 2, 3, 4)),
                          ("D", (2, 3, 4)))
    for n in ranks
    for kind in ("integer", "root", "weight")
]


def count_calls(monkeypatch, name, modules):
    """Wrap `name` in every module that binds it; return the call list."""
    calls = []
    original = getattr(modules[0], name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, spy)
    return calls


def statuses(results):
    return {r.name: r.status for r in results}


def test_signature_has_only_spec():
    assert list(inspect.signature(verify_system).parameters) == ["spec"]


def test_small_systems_pass_every_check():
    for spec in SMALL_SYSTEMS:
        results = verify_system(spec)
        assert all(r.status == PASS for r in results), (spec, results)
        names = [r.name for r in results]
        assert names[:3] == [
            "bruteforce", "genfun-vs-bruteforce", "graph-dictionary-vs-bruteforce"
        ]
        assert names[3] == "coboundary-at-Y1"
        assert names[4].startswith("finite-field-q")
        assert names[5].startswith("finite-field-q")
        assert len(names) == 6


def test_every_engine_returns_int_coefficients():
    # MultiPoly stores each integral coefficient as an int, never a Fraction.
    for spec in [RootSystemSpec("A", 1, "integer"), *SMALL_SYSTEMS]:
        for name, run in verify.ENGINES.items():
            terms = run(spec).poly.terms
            assert terms and all(type(c) is int for c in terms.values()), (spec, name)


def test_one_census_and_one_coboundary_per_system(monkeypatch):
    censuses = count_calls(
        monkeypatch, "sublattice_census", [lattice, tutte, finitefield, verify]
    )
    coboundaries = count_calls(monkeypatch, "coboundary_from_tutte", [tutte, verify])
    for spec in (RootSystemSpec("C", 3, "weight"), RootSystemSpec("D", 4, "root")):
        del censuses[:], coboundaries[:]
        assert all(r.status == PASS for r in verify_system(spec))
        assert (len(censuses), len(coboundaries)) == (1, 1)


def test_specializations_take_no_powers_and_no_substitution(monkeypatch, capsys):
    # Every change of variables goes through poly.compose_affine on lists.
    def refuse(*_):
        raise AssertionError("MultiPoly power or substitution called")

    monkeypatch.setattr(MultiPoly, "__pow__", refuse)
    monkeypatch.setattr(MultiPoly, "substitute", refuse)
    for spec in (RootSystemSpec("C", 3, "weight"), RootSystemSpec("D", 4, "root")):
        assert all(r.status == PASS for r in verify_system(spec))
    derive_all(arithmetic_tutte_bruteforce(build_config(RootSystemSpec("B", 3, "root"))))
    for lattice in ("integer", "root", "weight"):
        argv = ["table", "--lattice", lattice, "--max-n", "6", "--report", "tutte,char,ehrhart"]
        assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.count("\n") == 3 * 4 * 5


@pytest.mark.parametrize(
    "system,prime,q",
    [
        ("A:3:integer", 2, 2),  # L = 1: (F_2^*)^d is (Z/L)^d, and q = 2L
        ("A:3:weight", 7, 3),  # L = 3: q = L, and (F_7^*)^d is (Z/2L)^d
        ("C:3:integer", 17, 8),  # L = 8: q = L, and (F_17^*)^d is (Z/2L)^d
        ("B:2:integer", 3, 4),  # L = 2: (F_3^*)^d is (Z/L)^d, and q = 2L
    ],
)
def test_finite_field_check_names(system, prime, q):
    # Here the checks at L and 2L count the same two groups as the torus over
    # F_p (p the smallest prime with L | p - 1) and (Z/q)^d, L first.
    names = [r.name for r in verify_system(parse_system(system))]
    assert names[-2:] == [f"finite-field-q{k}" for k in sorted((prime - 1, q))]


@pytest.mark.parametrize(
    "system,groups",
    [
        ("C:2:integer", [4, 8]),
        # (Z/28)^6, at the smallest prime 29 with 7 | p - 1, is past the
        # point cap; (Z/14)^6 is not.
        ("A:7:weight", [7, 14]),
    ],
)
def test_counts_only_at_the_lcm_and_twice_it(monkeypatch, system, groups):
    calls = count_calls(monkeypatch, "_group_histogram", [finitefield])
    results = verify_system(parse_system(system))
    assert [q for _, q in calls] == groups
    assert all(r.status == PASS for r in results), results


def test_finite_field_check_skips_past_the_point_cap(monkeypatch, capsys):
    # C:3:integer has L = 8 and d = 3: 8^3 points fit the cap, 16^3 do not.
    monkeypatch.setattr(finitefield, "DEFAULT_POINT_CAP", 8**3)
    assert verify.all_passed(verify_system(parse_system("C:3:integer")))
    code = main(["verify", "--system", "C:3:integer"])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert lines[-2:] == [
        "C:3:integer  finite-field-q8: pass",
        "C:3:integer  finite-field-q16: skip "
        "(q^d = 16^3 = 4096 exceeds point cap 512)",
    ]


def test_perturbed_genfun_fails(monkeypatch, capsys):
    real = verify.extract_polynomial

    def perturbed(req, n):
        t = real(req, n)
        one = MultiPoly.const(TUTTE_VARS, 1)
        return TuttePolynomial(t.poly + one, t.rank, t.ambient_rank, t.flavor)

    monkeypatch.setattr(verify, "extract_polynomial", perturbed)
    results = verify_system(RootSystemSpec("C", 2, "integer"))
    assert statuses(results)["genfun-vs-bruteforce"] == FAIL
    assert not verify.all_passed(results)
    code = main(["verify", "--system", "C:2:integer"])
    assert code == EXIT_MISMATCH
    assert "genfun-vs-bruteforce: fail" in capsys.readouterr().out


def test_perturbed_group_count_fails_both_finite_field_checks(monkeypatch):
    real = finitefield._group_histogram

    def perturbed(config, q):
        histogram = dict(real(config, q))
        histogram[0] = histogram.get(0, 0) + 1
        return histogram

    monkeypatch.setattr(finitefield, "_group_histogram", perturbed)
    got = statuses(verify_system(RootSystemSpec("B", 3, "root")))
    failed = sorted(name for name, status in got.items() if status == FAIL)
    assert failed == ["finite-field-q2", "finite-field-q4"]  # L = 2
    assert all(status == PASS for name, status in got.items() if name not in failed)


def test_skips_carry_the_engines_own_messages(capsys):
    spec = RootSystemSpec("B", 8, "integer")
    with pytest.raises(CapacityError) as census_error:
        lattice.sublattice_census(build_config(spec))
    with pytest.raises(CapacityError) as dictionary_error:
        graph_dictionary_tutte(spec)

    results = verify_system(spec)
    skips = {r.name: r.detail for r in results if r.status == SKIP}
    assert skips == {
        "bruteforce": str(census_error.value),
        "graph-dictionary": str(dictionary_error.value),
        "finite-field": str(census_error.value),
        "cross-check": "no second engine reaches B:8:integer",
    }
    assert CheckResult("genfun", PASS, "taken as baseline") in results
    assert main(["verify", "--system", "B:8:integer"]) == EXIT_OK
    out = capsys.readouterr().out
    assert f"bruteforce: skip ({census_error.value})" in out


def test_graph_dictionary_reaches_rank_six(capsys):
    # D6 has 30 vectors, past the census guard, so genfun is the baseline.
    assert main(["verify", "--system", "D:6:weight"]) == EXIT_OK
    assert "graph-dictionary-vs-genfun: pass" in capsys.readouterr().out


LABEL = "cross-check: skip (no second engine reaches B:8:integer)"


def test_single_engine_run_is_labelled_in_text(capsys):
    # genfun is the only engine that reaches B:8; the run still exits 0.
    assert main(["verify", "--system", "B:8:integer"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"B:8:integer  {LABEL}"
    assert sum("cross-check" in line for line in lines) == 1


def test_single_engine_run_is_labelled_in_json(capsys):
    assert main(["verify", "--system", "B:8:integer", "--output", "json"]) == EXIT_OK
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks[-1] == {
        "name": "cross-check",
        "status": SKIP,
        "detail": "no second engine reaches B:8:integer",
    }


@pytest.mark.parametrize("system", ["C:3:weight", "D:6:weight", "A:8:root"])
def test_cross_checked_runs_carry_no_label(capsys, system):
    # Census + genfun + graphs; genfun + graphs past the census guard.
    assert main(["verify", "--system", system]) == EXIT_OK
    assert "cross-check" not in capsys.readouterr().out


def refuse(monkeypatch, *engines):
    """Make table entries raise the CapacityError of an engine past its guard."""

    def refused(spec):
        raise CapacityError(f"refused {spec}")

    for engine in engines:
        monkeypatch.setitem(verify.ENGINES, engine, refused)


def test_a_failed_comparison_is_a_verdict(monkeypatch, capsys):
    # B:6:integer is past the census guard: graphs against genfun is the only
    # comparison, and no group count runs.
    perturb(monkeypatch, "graphs")
    assert main(["verify", "--system", "B:6:integer"]) == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "graph-dictionary-vs-genfun: fail" in out
    assert "cross-check" not in out


def test_group_counts_alone_are_a_verdict(monkeypatch, capsys):
    refuse(monkeypatch, "genfun", "graphs")
    assert main(["verify", "--system", "C:2:integer"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "-vs-" not in out and "finite-field-q4: pass" in out
    assert "cross-check" not in out


def test_counts_that_skip_are_not_a_verdict(monkeypatch, capsys):
    refuse(monkeypatch, "genfun", "graphs")
    monkeypatch.setattr(finitefield, "DEFAULT_POINT_CAP", 1)
    assert main(["verify", "--system", "C:2:integer"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "C:2:integer  cross-check: skip (no second engine reaches C:2:integer)"


def test_a_count_is_a_verdict_whatever_its_name(monkeypatch):
    refuse(monkeypatch, "genfun", "graphs")
    monkeypatch.setattr(
        verify, "_finite_field_checks", lambda *_: [CheckResult("group-count", PASS)]
    )
    names = [r.name for r in verify_system(parse_system("C:2:integer"))]
    assert names == ["bruteforce", "genfun", "graph-dictionary", "coboundary-at-Y1", "group-count"]


def test_the_engine_table_is_the_method_list():
    _, flags = COMMANDS["compute"]
    _, _, choices, _ = flags["--method"]
    assert list(verify.ENGINES) == ["bruteforce", "genfun", "graphs", "finitefield"]
    assert choices == (*verify.ENGINES, "all")
    # The dictionary takes the spec itself, so the table needs no adapter.
    assert verify.ENGINES["graphs"] is graph_dictionary_tutte


def perturb(monkeypatch, engine):
    """Make one table entry return its polynomial plus 1."""
    real = verify.ENGINES[engine]

    def perturbed(spec):
        t = real(spec)
        one = MultiPoly.const(TUTTE_VARS, 1)
        return TuttePolynomial(t.poly + one, t.rank, t.ambient_rank, t.flavor)

    monkeypatch.setitem(verify.ENGINES, engine, perturbed)


@pytest.mark.parametrize("engine", ["bruteforce", "genfun", "graphs", "finitefield"])
def test_compute_all_runs_every_table_entry(monkeypatch, capsys, engine):
    perturb(monkeypatch, engine)
    assert main(["compute", "--method", "all", "--system", "C:2:integer"]) == EXIT_MISMATCH
    assert capsys.readouterr().out.splitlines()[-1] == "agreement: NO"


@pytest.mark.parametrize("engine,check", [("genfun", "genfun"), ("graphs", "graph-dictionary")])
def test_verify_runs_the_table_entries(monkeypatch, capsys, engine, check):
    perturb(monkeypatch, engine)
    assert main(["verify", "--system", "C:2:integer"]) == EXIT_MISMATCH
    assert f"C:2:integer  {check}-vs-bruteforce: fail" in capsys.readouterr().out


# The right polynomial in a wrong record.
WRONG_RECORDS = {
    "ambient_rank": lambda t: TuttePolynomial(t.poly, t.rank, t.ambient_rank + 1, t.flavor),
    "rank": lambda t: TuttePolynomial(t.poly, t.rank - 1, t.ambient_rank, t.flavor),
    "flavor": lambda t: TuttePolynomial(t.poly, t.rank, t.ambient_rank, "classical"),
}


@pytest.mark.parametrize("field", WRONG_RECORDS)
def test_same_polynomial_in_a_wrong_record_is_a_mismatch(monkeypatch, capsys, field):
    # derive_all reads both ranks through the q^(d-r) factor, so the engines
    # must agree on the whole record, not on the polynomial alone.
    real = verify.ENGINES["genfun"]
    monkeypatch.setitem(verify.ENGINES, "genfun", lambda spec: WRONG_RECORDS[field](real(spec)))
    assert main(["verify", "--system", "C:2:integer"]) == EXIT_MISMATCH
    assert "C:2:integer  genfun-vs-bruteforce: fail" in capsys.readouterr().out
    assert main(["compute", "--method", "all", "--system", "C:2:integer"]) == EXIT_MISMATCH
    assert capsys.readouterr().out.splitlines()[-1] == "agreement: NO"
