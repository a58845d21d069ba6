import pytest

from tuttekit.errors import AdmissibilityError, CapacityError, PrimeSearchError
from tuttekit.finitefield import (
    admissible_divisor,
    find_admissible_prime,
    is_prime,
    torus_profile,
    tutte_via_interpolation,
    verify_classical_mode,
    verify_finite_field_identity,
)
from tuttekit.lattice import LatticeBasis, VectorConfig
from tuttekit.root_systems import RootSystemSpec, build_config
from tuttekit.tutte import (
    arithmetic_tutte_bruteforce,
    classical_tutte_bruteforce,
    coboundary_from_tutte,
)


def cfg(family, n, kind):
    return build_config(RootSystemSpec(family, n, kind))


class TestPrimes:
    def test_is_prime(self):
        primes = [p for p in range(60) if is_prime(p)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_find_admissible(self):
        assert find_admissible_prime(2) == 3
        assert find_admissible_prime(4) == 5
        assert find_admissible_prime(16) == 17
        assert find_admissible_prime(16, min_p=18) == 97

    def test_search_cap(self):
        with pytest.raises(PrimeSearchError):
            find_admissible_prime(9973 * 2, cap=100)


class TestTorusProfile:
    def test_histogram_total_is_torus_size(self):
        c = cfg("C", 2, "integer")
        profile = torus_profile(c, 5)
        assert profile.total() == 4**2

    def test_inadmissible_prime_refused(self):
        c = cfg("C", 2, "integer")  # multiplicity lcm 4
        with pytest.raises(AdmissibilityError):
            torus_profile(c, 7)  # 4 does not divide 6

    def test_claimed_divisor_must_be_a_multiple_of_the_lcm(self):
        # Only B = {(4, 0)} has m(B) = 4; every other subset has m(B) = 1,
        # so sampling subsets would almost never see the 4.
        vectors = ((4, 0),) + ((1, 0),) * 19
        c = VectorConfig(vectors=vectors, lattice=LatticeBasis.standard(2))
        assert admissible_divisor(c) == 4
        assert admissible_divisor(c, known=12) == 12
        for known in (1, 2, 3, 6, 10):
            with pytest.raises(AdmissibilityError):
                admissible_divisor(c, known=known)
        with pytest.raises(AdmissibilityError):
            torus_profile(c, 3, divisor=2)

    def test_point_cap(self):
        c = cfg("B", 3, "integer")
        with pytest.raises(CapacityError):
            torus_profile(c, 11, point_cap=10)


class TestIdentity:
    @pytest.mark.parametrize(
        "family,n,kind,primes",
        [
            ("C", 2, "integer", (5, 13)),
            ("C", 2, "root", (3, 5)),
            ("B", 2, "weight", (5, 13)),
            ("A", 3, "root", (5, 7)),
            ("D", 3, "weight", (5, 13)),
        ],
    )
    def test_two_admissible_primes(self, family, n, kind, primes):
        c = cfg(family, n, kind)
        psi = coboundary_from_tutte(arithmetic_tutte_bruteforce(c))
        for p in primes:
            assert verify_finite_field_identity(c, p, psi)

    def test_wrong_polynomial_detected(self):
        c = cfg("C", 2, "integer")
        wrong = coboundary_from_tutte(arithmetic_tutte_bruteforce(cfg("B", 2, "integer")))
        assert not verify_finite_field_identity(c, 5, wrong)


class TestClassicalMode:
    # Even multiplicity lcms can never divide s - 2 for an odd prime s, so
    # classical mode is only exercisable on multiplicity-free configurations.
    @pytest.mark.parametrize("s", [3, 5, 7])
    def test_type_a_any_prime(self, s):
        c = cfg("A", 3, "integer")
        psi = coboundary_from_tutte(classical_tutte_bruteforce(c))
        assert verify_classical_mode(c, s, psi)

    def test_classical_equals_arithmetic_when_unimodular(self):
        c = cfg("A", 3, "integer")
        classical = classical_tutte_bruteforce(c)
        arithmetic = arithmetic_tutte_bruteforce(c)
        assert classical.poly == arithmetic.poly

    def test_precondition_enforced(self):
        c = cfg("C", 2, "integer")
        psi = coboundary_from_tutte(classical_tutte_bruteforce(c))
        with pytest.raises(AdmissibilityError):
            verify_classical_mode(c, 5, psi)  # s-2 = 3 not divisible by 4


class TestInterpolation:
    @pytest.mark.parametrize(
        "family,n,kind",
        [("C", 2, "integer"), ("B", 3, "weight"), ("A", 4, "weight"), ("D", 3, "root")],
    )
    def test_matches_bruteforce(self, family, n, kind):
        c = cfg(family, n, kind)
        assert (
            tutte_via_interpolation(c).poly == arithmetic_tutte_bruteforce(c).poly
        )
