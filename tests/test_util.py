import math

import numpy as np
import pytest

from areamix import derive_seed, rand_index
from areamix.util import format_value, sha256_bytes, sha256_file


class TestDeriveSeed:
    def test_matches_seed_sequence(self):
        want = int(np.random.SeedSequence([3, 3, 14, 15]).generate_state(1, np.uint64)[0])
        assert derive_seed(3, 14, 15) == want

    def test_deterministic_and_sensitive(self):
        assert derive_seed(0, 1) == derive_seed(0, 1)
        assert derive_seed(0, 1) != derive_seed(1, 0)
        # SeedSequence drops trailing zero words; the length prefix keeps
        # (m, r) and (m, r, 0) distinct
        assert derive_seed(0, 1) != derive_seed(0, 1, 0)

    def test_spread(self):
        seeds = {derive_seed(42, rep) for rep in range(1000)}
        assert len(seeds) == 1000

    def test_range(self):
        s = derive_seed(2**63, 7)
        assert 0 <= s < 2**64


class TestHashes:
    def test_known_digest(self):
        assert sha256_bytes(b"abc") == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_file_digest(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"abc")
        assert sha256_file(path) == sha256_bytes(b"abc")


class TestFormatValue:
    def test_shortest_round_trip(self):
        assert format_value(0.1) == "0.1"
        assert float(format_value(1.0 / 3.0)) == 1.0 / 3.0

    def test_integral_floats(self):
        assert format_value(325.0) == "325.0"
        assert format_value(0.0) == "0.0"

    def test_nan_is_blank(self):
        assert format_value(float("nan")) == ""

    def test_infinities(self):
        assert format_value(float("inf")) == "inf"
        assert format_value(np.float64("-inf")) == "-inf"
        assert float(format_value(float("inf"))) == float("inf")

    def test_plain_ints_pass_through(self):
        assert format_value(7) == "7"


def rand_oracle(a, b):
    n = len(a)
    agree = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += 1
            if (a[i] == a[j]) == (b[i] == b[j]):
                agree += 1
    return agree / total


class TestRandIndex:
    def test_identical_partitions(self):
        assert rand_index([0, 0, 1, 2], [5, 5, 3, 9]) == 1.0

    def test_hand_computed(self):
        # blocks {01}{23} vs {02}{13}: only the two cross pairs agree
        assert rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(1.0 / 3.0)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            a = rng.integers(0, 4, size=30)
            b = rng.integers(0, 3, size=30)
            assert rand_index(a, b) == pytest.approx(rand_oracle(a, b), rel=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(22)
        a = rng.integers(0, 3, size=25)
        b = rng.integers(0, 5, size=25)
        assert rand_index(a, b) == rand_index(b, a)

    def test_all_singletons_vs_one_block(self):
        n = 10
        got = rand_index(np.arange(n), np.zeros(n, dtype=int))
        assert got == pytest.approx(0.0)

    def test_length_mismatch(self):
        with pytest.raises(Exception):
            rand_index([0, 1], [0, 1, 2])
