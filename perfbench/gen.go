package main

import (
	"math/rand"
)

// Input generation. Every key and value is a pure function of the run
// seed, a namespace and an index, so the same seed gives the same inputs
// and a GET reply can be checked by regenerating what was written.

const (
	keyLen   = 16
	valLen   = 48
	bigLen   = 1024
	mask60   = 1<<60 - 1
	hexDigit = "0123456789abcdef"
)

// Key namespaces: the first byte of every key. Namespaces never share a
// key, so a workload can tell an interactive key from a bulk key, and a
// miss key is absent by construction.
const (
	nsShared = 's' // hot-read table, serve-mixed interactive keys
	nsBulk   = 'b' // serve-mixed bulk connection
	nsMiss   = 'm' // never written
	nsChurn  = 'c' // churn-disk live window
	nsProbe  = 'p' // capacity probe
)

// perm60 is a seed-keyed bijection on 60-bit integers: distinct indexes
// give distinct keys, and a different seed gives a different stream.
func perm60(seed, x uint64) uint64 {
	x = (x ^ seed) & mask60
	x = (x * 0x9E3779B97F4A7C15) & mask60
	x ^= x >> 31
	x = (x * 0xBF58476D1CE4E5B9) & mask60
	x ^= x >> 29
	return x
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// gen holds one run's seed.
type gen struct{ seed uint64 }

func newGen(seed int64) gen { return gen{seed: mix64(uint64(seed)) & mask60} }

// key writes the 16-byte key (ns, i) into dst and returns it.
func (g gen) key(dst []byte, ns byte, i int) []byte {
	dst = dst[:keyLen]
	dst[0] = ns
	x := perm60(g.seed^uint64(ns)<<52, uint64(i))
	for j := keyLen - 1; j >= 1; j-- {
		dst[j] = hexDigit[x&15]
		x >>= 4
	}
	return dst
}

// value writes the value of version ver of key (ns, i) into dst: eight
// hex digits of the version, then a pseudo-random hex tail.
func (g gen) value(dst []byte, ns byte, i int, ver uint32, n int) []byte {
	dst = dst[:n]
	v := ver
	for j := 7; j >= 0; j-- {
		dst[j] = hexDigit[v&15]
		v >>= 4
	}
	x := mix64(g.seed ^ uint64(ns)<<56 ^ uint64(i)<<20 ^ uint64(ver))
	for j := 8; j < n; j++ {
		if j%16 == 0 {
			x = mix64(x)
		}
		dst[j] = hexDigit[x&15]
		x >>= 4
	}
	return dst
}

// valueVersion decodes the version a value carries (ok false if the
// prefix is not eight hex digits).
func valueVersion(v []byte) (uint32, bool) {
	if len(v) < 8 {
		return 0, false
	}
	var ver uint32
	for _, c := range v[:8] {
		switch {
		case c >= '0' && c <= '9':
			ver = ver<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			ver = ver<<4 | uint32(c-'a'+10)
		default:
			return 0, false
		}
	}
	return ver, true
}

// rng returns an independent generator for stream id of this run.
func (g gen) rng(id uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(g.seed ^ id*0x9E3779B97F4A7C15))))
}

// zipf draws key indexes in [0, n) with exponent s; rank 0 is hottest,
// and ranks map to indexes through a seeded shuffle so hot keys scatter
// over the buckets.
type zipf struct {
	z    *rand.Zipf
	perm []int32
}

func newZipf(r *rand.Rand, s float64, perm []int32) *zipf {
	return &zipf{z: rand.NewZipf(r, s, 1, uint64(len(perm)-1)), perm: perm}
}

// perm is the seeded rank-to-index shuffle shared by a run's zipf
// streams, so every client agrees on which keys are hot.
func (g gen) perm(n int) []int32 {
	p := g.rng(0x21f).Perm(n)
	perm := make([]int32, n)
	for i, v := range p {
		perm[i] = int32(v)
	}
	return perm
}

func (z *zipf) next() int { return int(z.perm[z.z.Uint64()]) }
