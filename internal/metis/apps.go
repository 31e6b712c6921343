package metis

import (
	"bytes"

	"github.com/bravolock/bravo/internal/vm"
	"github.com/bravolock/bravo/internal/xrand"
)

// dictionary is the word pool for synthetic corpora; Metis's wr* apps fill
// memory with "random 'words'" the same way.
var dictionary = []string{
	"lock", "reader", "writer", "bias", "table", "slot", "cache", "line",
	"phase", "fair", "queue", "ticket", "cohort", "numa", "socket", "core",
	"fence", "atomic", "revoke", "inhibit", "scan", "fast", "slow", "path",
	"page", "fault", "mmap", "semaphore", "kernel", "thread", "stripe",
	"publish", "collide", "hash", "index", "probe", "spin", "park", "wake",
}

// GenerateCorpus produces n pseudo-random space-separated words,
// deterministic in seed.
func GenerateCorpus(n int, seed uint64) []byte {
	rng := xrand.NewXorShift64(seed)
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		if i > 0 {
			buf.WriteByte(' ')
		}
		buf.WriteString(dictionary[rng.Intn(uint64(len(dictionary)))])
	}
	return buf.Bytes()
}

// SplitCorpus cuts a corpus into roughly equal word-aligned splits.
func SplitCorpus(corpus []byte, splits int) [][]byte {
	if splits < 1 {
		splits = 1
	}
	var out [][]byte
	step := len(corpus) / splits
	if step == 0 {
		return [][]byte{corpus}
	}
	start := 0
	for start < len(corpus) {
		end := start + step
		if end >= len(corpus) {
			end = len(corpus)
		} else {
			for end < len(corpus) && corpus[end] != ' ' {
				end++
			}
		}
		out = append(out, corpus[start:end])
		start = end + 1
	}
	return out
}

// mapWords tokenizes a split and emits (word, 1) per occurrence.
func mapWords(split []byte, alloc *Allocator, emit func([]byte, uint64)) {
	start := -1
	for i := 0; i <= len(split); i++ {
		if i < len(split) && split[i] != ' ' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			emit(split[start:i], 1)
			start = -1
		}
	}
}

// sumValues is the word-count reducer.
func sumValues(_ string, values []uint64) uint64 {
	var s uint64
	for _, v := range values {
		s += v
	}
	return s
}

// WC runs the Metis wc (word count) application: count word occurrences in
// the given corpus with the given parallelism, contending on as's mmap_sem.
func WC(as *vm.AddressSpace, corpus []byte, workers int) *Result {
	job := &Job{
		Workers: workers,
		Map:     mapWords,
		Reduce:  sumValues,
		AS:      as,
	}
	return job.Run(SplitCorpus(corpus, workers*4))
}

// Wrmem runs the Metis wrmem application: each worker allocates a large
// buffer, fills it with random words (faulting in every page), and the
// words are fed into an inverted-index (word-count) reduction. wordsPerSplit
// controls the per-split buffer volume.
func Wrmem(as *vm.AddressSpace, workers, splits, wordsPerSplit int) *Result {
	job := &Job{
		Workers: workers,
		Map: func(split []byte, alloc *Allocator, emit func([]byte, uint64)) {
			// The split carries only a seed; the worker generates and
			// stores the words through the instrumented allocator, exactly
			// as wrmem "allocates a large chunk of memory and fills it with
			// random words".
			seed := uint64(split[0])<<8 | uint64(split[1])
			rng := xrand.NewXorShift64(seed + 1)
			for i := 0; i < wordsPerSplit; i++ {
				w := dictionary[rng.Intn(uint64(len(dictionary)))]
				stored := alloc.Copy([]byte(w))
				emit(stored, 1)
			}
		},
		Reduce: sumValues,
		AS:     as,
	}
	seeds := make([][]byte, splits)
	for i := range seeds {
		seeds[i] = []byte{byte(i >> 8), byte(i)}
	}
	return job.Run(seeds)
}
