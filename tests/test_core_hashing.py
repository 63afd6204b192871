"""Tests for the four-wise independent sign families and stable seed hashes."""

import os
import subprocess
import sys
import zlib
from unittest import mock

import numpy as np
import pytest

from repro.core.hashing import (
    MERSENNE_PRIME,
    FourWiseFamilyBank,
    _build_signs,
    coefficients_from_state,
    stable_seed_offset,
    stable_text_hash,
    stack_xi_coefficients,
)
from repro.errors import SketchConfigError


class TestConstruction:
    def test_requires_positive_families(self):
        with pytest.raises(SketchConfigError):
            FourWiseFamilyBank(0, 16, seed=1)

    def test_requires_positive_universe(self):
        with pytest.raises(SketchConfigError):
            FourWiseFamilyBank(4, 0, seed=1)

    def test_universe_limit(self):
        with pytest.raises(SketchConfigError):
            FourWiseFamilyBank(1, int(MERSENNE_PRIME) + 1, seed=1)


class TestDeterminism:
    def test_same_seed_gives_identical_families(self):
        ids = np.arange(64)
        first = FourWiseFamilyBank(6, 64, seed=42).signs(ids)
        second = FourWiseFamilyBank(6, 64, seed=42).signs(ids)
        assert np.array_equal(first, second)

    def test_different_seeds_give_different_families(self):
        ids = np.arange(64)
        first = FourWiseFamilyBank(6, 64, seed=1).signs(ids)
        second = FourWiseFamilyBank(6, 64, seed=2).signs(ids)
        assert not np.array_equal(first, second)

    def test_table_and_direct_evaluation_agree(self):
        # The table must yield exactly the same signs as direct polynomial
        # evaluation (what a family over the table limit does).
        bank = FourWiseFamilyBank(5, 512, seed=7)
        small_ids = np.arange(10)
        with mock.patch.object(FourWiseFamilyBank, "_TABLE_BYTE_LIMIT", 0):
            assert bank.resolve_table() is None
            direct = bank.signs(small_ids)
        via_table = bank.signs(small_ids)
        assert bank.resolve_table() is not None
        assert np.array_equal(direct, via_table)

    @pytest.mark.parametrize("families", [1, 256])
    @pytest.mark.parametrize("universe", [1, 2047, 5000, 8191])
    def test_built_table_is_the_polynomial_byte_for_byte(self, universe,
                                                         families):
        """The build takes the parity through ``h ^ (h // p)`` narrowed to
        8 bits, over whole and partial blocks; Horner's rule with a
        remainder per step is the reference."""
        bank = FourWiseFamilyBank(families, universe, seed=universe + families)
        reference = np.where(
            bank._hash(np.arange(universe, dtype=np.uint64),
                       bank.coefficients) & np.uint64(1),
            np.int8(-1), np.int8(1)).T
        table = _build_signs(universe, bank.coefficients)
        assert table.dtype == np.int8 and table.flags.c_contiguous
        assert table.tobytes() == np.ascontiguousarray(reference).tobytes()


class TestValues:
    def test_signs_are_plus_minus_one(self):
        bank = FourWiseFamilyBank(10, 256, seed=3)
        signs = bank.signs(np.arange(256))
        assert set(np.unique(signs)) <= {-1, 1}

    def test_shape(self):
        bank = FourWiseFamilyBank(7, 100, seed=3)
        assert bank.signs(np.arange(30)).shape == (7, 30)

    def test_out_of_range_ids_rejected(self):
        bank = FourWiseFamilyBank(2, 16, seed=0)
        with pytest.raises(SketchConfigError):
            bank.signs(np.array([16]))
        with pytest.raises(SketchConfigError):
            bank.signs(np.array([-1]))


class TestStatisticalProperties:
    def test_signs_are_roughly_balanced(self):
        bank = FourWiseFamilyBank(200, 1024, seed=11)
        signs = bank.signs(np.arange(1024)).astype(np.float64)
        # Mean over all families and ids should be close to zero.
        assert abs(signs.mean()) < 0.02

    def test_pairwise_products_are_roughly_unbiased(self):
        # E[xi_a * xi_b] should be ~0 for a != b; averaging the product over
        # many independent families estimates that expectation.
        bank = FourWiseFamilyBank(4000, 64, seed=13)
        ids = np.array([3, 57])
        signs = bank.signs(ids).astype(np.float64)
        correlation = float(np.mean(signs[:, 0] * signs[:, 1]))
        assert abs(correlation) < 0.06

    def test_fourwise_products_are_roughly_unbiased(self):
        bank = FourWiseFamilyBank(4000, 64, seed=17)
        ids = np.array([1, 9, 33, 60])
        signs = bank.signs(ids).astype(np.float64)
        product = np.prod(signs, axis=1)
        assert abs(float(product.mean())) < 0.06

    def test_second_moment_estimation(self):
        # The defining property: for a frequency vector f, E[(sum f_i xi_i)^2]
        # equals sum f_i^2.
        rng = np.random.default_rng(0)
        frequencies = rng.integers(0, 5, size=128).astype(np.float64)
        truth = float(np.sum(frequencies ** 2))
        bank = FourWiseFamilyBank(6000, 128, seed=23)
        signs = bank.signs(np.arange(128)).astype(np.float64)
        sketches = signs @ frequencies
        estimate = float(np.mean(sketches ** 2))
        assert estimate == pytest.approx(truth, rel=0.1)


class TestStableSeedHashing:
    def test_known_values(self):
        assert stable_text_hash(("R", "S")) == zlib.crc32(b"R::S")
        assert stable_seed_offset(("R", "S")) == zlib.crc32(b"R::S") % 100_000
        assert stable_seed_offset(("R", "S")) != stable_seed_offset(("S", "R"))
        assert stable_seed_offset(("only",)) == zlib.crc32(b"only") % 100_000

    def test_offsets_stay_below_100_000(self):
        offsets = [stable_seed_offset((f"r{index}", f"s{index}"))
                   for index in range(2000)]
        assert 0 <= min(offsets) and max(offsets) < 100_000
        assert len(set(offsets)) > 1900  # spread, not a constant

    def test_cross_process_stability(self):
        """The offset must not depend on per-process hash randomisation.

        A fresh interpreter with a different PYTHONHASHSEED must derive the
        same seed — the property that keeps snapshot-restored service
        sketches merge-compatible with sketches built in other processes.
        """
        import repro

        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
        script = ("from repro.core.hashing import stable_seed_offset; "
                  "print(stable_seed_offset(('R', 'S', 'T')))")
        values = set()
        for hash_seed in ("0", "1", "424242"):
            env["PYTHONHASHSEED"] = hash_seed
            output = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, check=True).stdout.strip()
            values.add(int(output))
        assert values == {stable_seed_offset(("R", "S", "T"))}


class TestCoefficientSerialisation:
    """xi-coefficient (de)serialisation round trips (sketch snapshot seeds)."""

    def test_state_round_trip_rebuilds_identical_families(self):
        bank = FourWiseFamilyBank(6, 1024, seed=17)
        state = bank.coefficients.tolist()  # what a JSON hop delivers
        restored = FourWiseFamilyBank.from_coefficients(state, 1024)
        ids = np.arange(1024)
        assert np.array_equal(restored.signs(ids), bank.signs(ids))
        assert restored.matches_coefficients(bank.coefficients)

    def test_state_is_json_serialisable(self):
        import json

        bank = FourWiseFamilyBank(3, 64, seed=5)
        text = json.dumps(bank.coefficients.tolist())
        assert bank.matches_coefficients(json.loads(text))

    def test_matches_coefficients_accepts_all_forms(self):
        bank = FourWiseFamilyBank(4, 128, seed=9)
        as_list = bank.coefficients.tolist()
        as_array = coefficients_from_state(as_list)
        read_only = as_array.copy()
        read_only.setflags(write=False)
        assert bank.matches_coefficients(as_list)
        assert bank.matches_coefficients(as_array)
        assert bank.matches_coefficients(read_only)

    def test_matches_coefficients_rejects_other_seeds_and_shapes(self):
        bank = FourWiseFamilyBank(4, 128, seed=9)
        other = FourWiseFamilyBank(4, 128, seed=10)
        assert not bank.matches_coefficients(other.coefficients)
        assert not bank.matches_coefficients([[1, 2, 3]])  # 3 coefficients
        assert not bank.matches_coefficients(
            FourWiseFamilyBank(5, 128, seed=9).coefficients)

    def test_malformed_state_raises(self):
        with pytest.raises(SketchConfigError):
            coefficients_from_state([1, 2, 3, 4])  # 1-d: no family axis

    def test_stacked_tensor_matches_per_bank_matrices(self):
        banks = [FourWiseFamilyBank(4, 256, seed=s) for s in (1, 2, 3)]
        stacked = stack_xi_coefficients(banks)
        assert stacked.shape == (3, 4, 4)
        assert stacked.flags.c_contiguous
        for dim, bank in enumerate(banks):
            assert bank.matches_coefficients(stacked[dim])

    def test_stacked_tensor_requires_banks(self):
        with pytest.raises(SketchConfigError):
            stack_xi_coefficients([])
