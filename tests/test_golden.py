"""Bit-exactness pins for the ``splitmix64-boxmuller-v1`` generator.

The benchmark's golden table (``perfbench/golden.json``) is loaded read-only
and checked as a whole.  Its stream prefix and family matrices are smaller
than one draw chunk, so larger blocks and matrices are pinned here as well.
Any change to these bytes needs a new generator tag.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

import lottalora
from lottalora.initfam import FAMILY_NAMES, InitFamily, draw_matrix
from lottalora.prng import DrawKind, Stream, derive_stream

GOLDEN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "golden.py"


def sha256(array, dtype):
    return hashlib.sha256(array.astype(dtype).tobytes()).hexdigest()


def test_benchmark_golden_table_matches():
    spec = importlib.util.spec_from_file_location("perfbench_golden", GOLDEN_PY)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    checked, mismatches = golden.check(lottalora)
    assert checked > 0
    assert mismatches == []


# SHA-256 of Stream(seed).u64_block(20000) as little-endian u64
U64_20000 = {
    0: "4fb78a7b547cbe9fd3cb94565a35271d0f68a68a03a06650dfccb03f23f21394",
    42: "4b414c3bd619e4ebe2244c1fe5f5af44e0d70ffeb1770a3c15fa50f4a3d8baa3",
    2**64 - 1: "f149e211adb963851b9f90e3cecdf465c6a4291793b36639ec321e81b9c28cdf",
}

# SHA-256 of Stream(seed).gaussian_block(3 * 8192 + 1) as little-endian f64
GAUSSIAN_24577 = {
    0: "0fbf1991bbfaede0a00abed02dd96a78085e9fb5c6cf1f89e5d0ab5b92b0037a",
    42: "79b2c0e3bf76da575d1fbdc5303b2cf1c1c5c5245a285b4b443e731d17e4dc57",
    2**64 - 1: "756b7b41b3169db8318d48227d040555967dfa35863516c5186dbe5aef695f1c",
}

# SHA-256 of the f32 bytes of a 300x100 matrix per family, drawn from
# derive_stream(7, 0, BACKBONE_WEIGHT) with the family's default parameters
FAMILY_300x100 = {
    "normal": "f77c53b779209c0c643f4e050b8f969a8fdc03bc0f557db5e583b5d5628be31e",
    "truncated_normal": "d85878aaca7bc132247de124800d335607db554f1728d30cdaf9a9cfd8abf125",
    "uniform": "5d5dd909ef632d5d931dc4420b64ab034819459a92b59ff86f99a3eafd0f34fe",
    "orthogonal": "538b1f9ad7f0d6ca1ace340132ef63562bd9df6f847ab08ed8e6285e98f9c667",
    "kaiming_normal": "79c11faef9d86f67deddfd9e8de45ca0ea13654aaf5e4ce7680d8a14ca438881",
    "kaiming_uniform": "5d5dd909ef632d5d931dc4420b64ab034819459a92b59ff86f99a3eafd0f34fe",
    "xavier_normal": "a4f5202c13ae8cfc4a2e57fa3653e2c4ef3c9e588330064ce575b1a2572b34a7",
    "xavier_uniform": "9f14ea4bcd07a840d7a53f4cfb7f320ec47dc35ae1f27704e987d75c72fc6958",
    "spectral_radius": "55b92d0ea86f26c74e4252829ee35c3025c77f86aa3aee3f4c9fa713cd1efe21",
    "cauchy": "094be2173e8baaf1f6390a2747a3ed484572028801dee5df8988c48ef7019a13",
    "laplace": "5fca8467a256f99a564a970aae8906d0cd5017cdbfdb088ee3d84d782e6522d4",
    "student_t": "118eb374636e5bffdc34858670f14d493801d64e9447d6d43cdb7912975c88be",
    "gaussian_mixture": "1d33ba93be568180aa62193148585af6719f2eaa6817c241fe0e21f4789d880e",
    "sparse_normal": "2bfa74a751f9f22676b707f54f447e9eaaeb2dbf6195b84e894fd9e0d32811b5",
    "sparse_erdos_renyi": "2bfa74a751f9f22676b707f54f447e9eaaeb2dbf6195b84e894fd9e0d32811b5",
    "beta": "797aa6f2708d288d12b1820588b654ebe4f91c9854a33947b5ea5c4b437f5990",
    "exponential": "817be93c37f8d3804e52098a983cbd9af3cfd5015066e9791421f766dd430cb1",
    "lowbit16": "a9d3b25354d667c48e5b8ea23b02dd9434d6e06a749ec696200efbea3e99981b",
    "lowbit8": "8f6634d8e8cfa92ed322530872ed8ac4e0fdfaad047feb010326664608544954",
    "lowbit4": "f634bae6be3b3c8c053ca14ca580141faa50d4583e0eadfd337ba10394000349",
    "lowbit2": "2877bb332133a95f14521b5068539285ba37090afcdee6a1ffdec5ddae22c8c4",
    "binary": "f80a2310384fa4503f2471f8d4f8f0e20d27d091bacdf6a5de2eda7857ed7378",
}


@pytest.mark.parametrize("seed", sorted(U64_20000))
def test_u64_block_20000_pinned(seed):
    assert sha256(Stream(seed).u64_block(20000), "<u8") == U64_20000[seed]


@pytest.mark.parametrize("seed", sorted(GAUSSIAN_24577))
def test_gaussian_block_24577_pinned(seed):
    assert sha256(Stream(seed).gaussian_block(3 * 8192 + 1), "<f8") == GAUSSIAN_24577[seed]


def test_every_family_is_pinned():
    assert sorted(FAMILY_300x100) == sorted(FAMILY_NAMES)


@pytest.mark.parametrize("name", sorted(FAMILY_300x100))
def test_family_matrix_300x100_pinned(name):
    stream = derive_stream(7, 0, DrawKind.BACKBONE_WEIGHT)
    matrix = draw_matrix(stream, InitFamily(name), 300, 100)
    assert sha256(matrix.data, "<f4") == FAMILY_300x100[name]
