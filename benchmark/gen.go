package main

import (
	"encoding/binary"
	"math"
	"sort"
)

// The generator. Everything a workload sends is derived from the seed
// before the measured phase starts: each worker walks a pre-generated tape
// of (operation, key) entries, so the measured loop does no random-number
// work, no allocation, and the same seed replays the same operations.

// rng is splitmix64.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// mix64 hashes two words into one (one splitmix round over their sum).
func mix64(a, b uint64) uint64 {
	r := rng{s: a ^ (b * 0xd6e8feb86659fd93)}
	return r.next()
}

// zipfTheta is the key-popularity skew every keyed workload uses.
const zipfTheta = 0.99

// zipfCDF returns the cumulative distribution of a zipf(theta) over n
// ranks; a draw is a binary search for a uniform variate.
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), zipfTheta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// opKind is what a tape entry asks the worker to do.
type opKind uint8

const (
	opGet    opKind = iota // point read of any key
	opPut                  // point write of one of the worker's own keys
	opCAS                  // compare-and-swap on an own key
	opMPut                 // batched write; the following entries carry the other keys
	opMGet                 // batched read; the following entries carry the other keys
	opGetTok               // read of the last key written, carrying its commit token
	opMember               // a batch's follow-on key; never an operation of its own
)

// mixEntry is one line of a workload's request mix: pct percent of requests
// are kind, each covering batch keys (1 for point operations).
type mixEntry struct {
	kind  opKind
	pct   int
	batch int
}

// A tape entry packs the kind into the top byte and the key index into the
// low 24 bits.
const tapeKeyMask = 1<<24 - 1

func tapeEntry(k opKind, idx uint32) uint32 { return uint32(k)<<24 | idx }

// genTape draws length key-operations for one worker: a request kind from
// mix and a zipf-ranked key for it, the rank scattered over the key space
// by a seed-dependent bijection so hot keys land on different shards for
// different seeds. A batch occupies batch consecutive entries; one that
// would run past the end of the tape degrades to a point read.
func genTape(seed uint64, worker, length int, mix []mixEntry, cdf []float64) []uint32 {
	r := rng{s: mix64(seed, uint64(worker)+1)}
	n := uint64(len(cdf))
	mult := mix64(seed, 0xa5) | 1
	add := mix64(seed, 0x5a)
	key := func() uint32 {
		rank := uint64(sort.SearchFloat64s(cdf, r.float()))
		if rank >= n {
			rank = n - 1
		}
		return uint32((rank*mult + add) & (n - 1))
	}
	tape := make([]uint32, length)
	for i := 0; i < length; {
		pick, kind, batch := int(r.next()%100), opGet, 1
		for _, m := range mix {
			if pick < m.pct {
				kind, batch = m.kind, m.batch
				break
			}
			pick -= m.pct
		}
		if i+batch > length {
			kind, batch = opGet, 1
		}
		tape[i] = tapeEntry(kind, key())
		for j := 1; j < batch; j++ {
			tape[i+j] = tapeEntry(opMember, key())
		}
		i += batch
	}
	return tape
}

// tapeHash folds the workers' tapes into one word: the op-sequence
// fingerprint printed with every result (same seed, same hash).
func tapeHash(tapes [][]uint32) uint64 {
	h := uint64(len(tapes))
	for _, t := range tapes {
		for _, e := range t {
			h = mix64(h, uint64(e))
		}
	}
	return h
}

// Values. Every value the benchmark stores is valueSize bytes encoding
// (key, writer sequence, checksum): word 0 is the key, word 1 the sequence
// number of the write that produced it, and words 2..15 are mix64(key,seq)+i.
// A reader can therefore tell a torn, misrouted or stale value from a good
// one without knowing what was written.
const (
	valueSize  = 128
	valueWords = valueSize / 8
)

func encodeValue(dst []byte, key uint64, seq uint32) {
	_ = dst[valueSize-1]
	binary.LittleEndian.PutUint64(dst[0:], key)
	binary.LittleEndian.PutUint64(dst[8:], uint64(seq))
	h := mix64(key, uint64(seq))
	for i := 2; i < valueWords; i++ {
		binary.LittleEndian.PutUint64(dst[8*i:], h+uint64(i))
	}
}

// decodeValue returns the writer sequence v carries, and whether v is a
// well-formed value for key.
func decodeValue(v []byte, key uint64) (seq uint32, ok bool) {
	if len(v) != valueSize || binary.LittleEndian.Uint64(v) != key {
		return 0, false
	}
	s := binary.LittleEndian.Uint64(v[8:])
	h := mix64(key, s)
	for i := 2; i < valueWords; i++ {
		if binary.LittleEndian.Uint64(v[8*i:]) != h+uint64(i) {
			return 0, false
		}
	}
	return uint32(s), s>>32 == 0
}
