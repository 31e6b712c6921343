//go:build amd64 && !race

package bias

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestScanForSkipsGenerationOnlyBlocks checks that the block filter masks the
// generation off before it tests a block for identities: a table of emptied
// slots (every word a bare generation) must scan about as fast as a table
// that was never used, not at the in-vector compare's pace. A filter that
// tested raw words would still answer correctly, so only the time tells.
// The two scans alternate and the fastest of each is kept, so a descheduled
// round inflates neither side.
func TestScanForSkipsGenerationOnlyBlocks(t *testing.T) {
	fresh := make([]atomic.Uint64, DefaultTableSize)
	used := make([]atomic.Uint64, DefaultTableSize)
	for i := range used {
		used[i].Store(genMask - uint64(i)%genMask)
	}
	best := func(s []atomic.Uint64, prev time.Duration) time.Duration {
		start := time.Now()
		if scanFor(s, scanKey) != len(s) {
			t.Fatal("scanFor matched an empty slot")
		}
		return min(prev, time.Since(start))
	}
	fastFresh, fastUsed := time.Hour, time.Hour
	for range 200 {
		fastFresh = best(fresh, fastFresh)
		fastUsed = best(used, fastUsed)
	}
	t.Logf("fresh %v, used %v", fastFresh, fastUsed)
	if fastUsed > fastFresh*3/2 {
		t.Errorf("a table of emptied slots scans in %v, a fresh one in %v: the filter is not skipping generation-only blocks", fastUsed, fastFresh)
	}
}
