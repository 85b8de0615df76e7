package main

import (
	"fmt"
	"math/big"
	"math/rand"

	"ppstream/internal/paillier"
)

// deriveKey returns the Paillier key for a workload seed. paillier.
// GenerateKey draws its primes with crypto/rand.Prime, which consumes an
// unpredictable number of bytes even from a seeded reader, so the same
// seed would still give a different key on every run. Here each prime is
// found by a deterministic search instead: a seeded random odd start
// with its top two bits set (so p·q has exactly bits bits), stepped by 2
// until big.Int.ProbablyPrime accepts it — itself deterministic for a
// given candidate. The primes are loaded through
// paillier.NewPrivateKeyFromPrimes, which re-checks them.
func deriveKey(seed int64, bits int) (*paillier.PrivateKey, error) {
	if bits%16 != 0 {
		return nil, fmt.Errorf("key size %d is not a whole number of 16-bit words", bits)
	}
	rng := rand.New(rand.NewSource(seed))
	p := seededPrime(rng, bits/2)
	q := seededPrime(rng, bits/2)
	for q.Cmp(p) == 0 {
		q = seededPrime(rng, bits/2)
	}
	key, err := paillier.NewPrivateKeyFromPrimes(p, q)
	if err != nil {
		return nil, err
	}
	if key.Bits() != bits {
		return nil, fmt.Errorf("derived a %d-bit modulus, want %d", key.Bits(), bits)
	}
	return key, nil
}

// seededPrime searches upward from a random bits-bit odd start with the
// top two bits set; a start whose search runs past bits bits is
// discarded.
func seededPrime(rng *rand.Rand, bits int) *big.Int {
	two := big.NewInt(2)
	buf := make([]byte, bits/8)
	for {
		_, _ = rng.Read(buf) // a math/rand source never fails
		buf[0] |= 0xC0
		buf[len(buf)-1] |= 1
		p := new(big.Int).SetBytes(buf)
		for p.BitLen() == bits {
			if p.ProbablyPrime(20) {
				return p
			}
			p.Add(p, two)
		}
	}
}
