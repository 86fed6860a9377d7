"""Parsing, primality, seed derivation and the Residue record."""

import dataclasses

import pytest

import subgroupdlp
from subgroupdlp import field
from subgroupdlp.field import (MILLER_RABIN_ROUNDS, Residue, derive_seed,
                               is_probable_prime, parse_int)

P256_ORDER = 115792089210356248762697446949407573529996955224135760342422259061068512044369


def test_parse_int_decimal_and_hex():
    assert parse_int("30") == 30
    assert parse_int(" 0x1e ") == 30
    assert parse_int("0X1E") == 30
    assert parse_int("-17") == -17
    assert parse_int("-0x1e") == -30
    assert parse_int("+0x1e") == 30
    assert parse_int(str(P256_ORDER)) == P256_ORDER


def test_parse_int_round_trips_canonical_decimal():
    for v in (0, 1, 30, 65537, P256_ORDER):
        assert parse_int(str(v)) == v
        assert str(parse_int(str(v))) == str(v)


def test_parse_int_rejects_garbage():
    for bad in ("", "12m", "0x", "one", "--5", "-+5", "+-5", "- -5",
                "--0x1e", "-", "- 5", "+ 5", "- 0x1e"):
        with pytest.raises(ValueError):
            parse_int(bad)


def test_primality_small_classified_exhaustively():
    # oracle: sieve of Eratosthenes
    limit = 2000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    for n in range(limit):
        assert is_probable_prime(n) == sieve[n], n


def test_primality_known_large_values():
    assert is_probable_prime(2 ** 127 - 1)          # Mersenne prime
    assert is_probable_prime(P256_ORDER)
    assert not is_probable_prime(2 ** 127 - 3)
    assert not is_probable_prime(P256_ORDER - 1)
    assert not is_probable_prime(561)               # Carmichael
    assert not is_probable_prime(3215031751)        # strong pseudoprime to 2,3,5,7
    assert MILLER_RABIN_ROUNDS >= 40


def test_primality_is_memoised_in_a_bounded_cache():
    assert is_probable_prime.cache_info().maxsize is not None
    assert is_probable_prime(P256_ORDER)
    before = is_probable_prime.cache_info()
    assert is_probable_prime(P256_ORDER)  # no Miller-Rabin round runs
    after = is_probable_prime.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    # composites, Carmichael numbers among them, stay composite when cached
    for n in (561, 1105, 1729, 3215031751, P256_ORDER - 1, 2 ** 127 - 3):
        assert not is_probable_prime(n)
        assert not is_probable_prime(n)


def test_residue_equality_and_hash():
    assert Residue(4, 31) == Residue(4, 31)
    assert Residue(4, 31) != Residue(4, 37)
    assert Residue(4, 31) != Residue(5, 31)
    assert Residue(4, 31) != 4
    assert hash(Residue(4, 31)) == hash(Residue(4, 31))
    assert len({Residue(4, 31), Residue(4, 31), Residue(5, 31)}) == 2
    r = Residue(4, 31)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.value = 7


def test_field_keeps_only_what_the_builtins_lack():
    # exponent arithmetic is the built-in pow(x, e, p) and pow(y, -1, p)
    kept = {"Residue", "derive_seed", "is_probable_prime", "parse_int"}
    for namespace in (field, subgroupdlp):
        from_field = {n for n in dir(namespace)
                      if getattr(getattr(namespace, n), "__module__", None)
                      == field.__name__}
        assert from_field == kept, namespace
    private = {n for n in vars(field)
               if n.startswith("_") and not n.startswith("__")}
    assert private == {"_SMALL_PRIMES"}


def test_derive_seed_stable_and_contextual():
    a = derive_seed(7, "multipliers")
    assert a == derive_seed(7, "multipliers")
    assert a != derive_seed(7, "keys")
    assert a != derive_seed(8, "multipliers")
    assert 0 <= a < 1 << 64


def test_derive_seed_streams_are_pinned():
    # the first 8 bytes of SHA-256 over "7|multipliers|65537|8" and
    # "0|keys|1009|1008|3": every seeded campaign and trial draws from these
    assert derive_seed(7, "multipliers", 65537, 8) == 3642027975210205699
    assert derive_seed(0, "keys", 1009, 1008, 3) == 6867779023494860642
