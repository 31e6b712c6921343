package bench

import (
	"slices"
	"testing"
	"time"
)

func TestReadLatencyRecordsSamples(t *testing.T) {
	s := ReadLatency("bravo-ba", 2, 500*time.Microsecond,
		Config{Interval: 40 * time.Millisecond})
	if len(s) == 0 {
		t.Fatal("no latency samples recorded")
	}
	if s.Percentile(99) < s.Percentile(50) {
		t.Fatal("percentiles inverted")
	}
}

func TestReadLatencyRevMuVariantRuns(t *testing.T) {
	// The §7 revocation-mutex variant must measure cleanly; the claim that
	// it trims the read-latency tail is asserted qualitatively by the
	// BenchmarkLatencyTail harness (a tail comparison on one CPU is too
	// noisy for a hard test assertion).
	s := ReadLatency("bravo-ba-revmu", 2, 500*time.Microsecond,
		Config{Interval: 40 * time.Millisecond})
	if len(s) == 0 {
		t.Fatal("no latency samples recorded")
	}
}

// TestReadLatencyExactSamplesWithinBound pins the resolution — samples are
// exact nanoseconds, so a percentile is a recorded value and not a bucket
// edge — and that a reader which fills its buffer stops recording instead
// of growing it.
func TestReadLatencyExactSamplesWithinBound(t *testing.T) {
	const readers, bound = 2, 1000
	s := readLatency("bravo-ba", readers, 500*time.Microsecond,
		Config{Interval: 40 * time.Millisecond}, bound)
	if len(s) != readers*bound {
		t.Fatalf("recorded %d samples, want exactly %d readers × %d", len(s), readers, bound)
	}
	if !slices.ContainsFunc(s, func(v int64) bool { return v&(v-1) != 0 }) {
		t.Fatalf("all %d samples are powers of two: bucketed, not measured", len(s))
	}
	p50, p99, top := s.Percentile(50), s.Percentile(99), s[len(s)-1]
	if p50 > p99 || p99 > top || s.Percentile(100) != top {
		t.Fatalf("p50 %d, p99 %d, max %d out of order", p50, p99, top)
	}
}
