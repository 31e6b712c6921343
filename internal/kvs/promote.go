package kvs

// Failover promotion support: turning a caught-up replica's volatile state
// into a fresh primary's durable directory without logging a single new
// record. The trick is to lie truthfully about history — write the state
// as if it were a checkpoint: MANIFEST plus one snapshot file per shard,
// each stamped with the LSN the replica had applied. Recovery then loads
// the snapshots and continues each shard's log from exactly that LSN, so
// the promoted primary's first record is cut+1 and every read-your-writes
// token issued before the failover stays comparable against its log.

import (
	"fmt"
	"os"
	"path/filepath"
)

// SeedSnapshotDir materializes src's current state into dir as a freshly
// checkpointed durable layout: MANIFEST plus a snapshot of every shard,
// shard i's snapshot stamped lsns[i], and no WAL. OpenSharded on dir then
// recovers exactly src's state with each shard's log continuing from its
// stamp. dir must not already hold an engine; src is typically a
// replication follower's volatile engine and lsns its applied positions —
// the failover cut.
func SeedSnapshotDir(dir string, src *Sharded, lsns []uint64) error {
	if len(lsns) != len(src.shards) {
		return fmt.Errorf("kvs: seeding %d LSNs for %d shards", len(lsns), len(src.shards))
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return fmt.Errorf("kvs: %s already holds an engine", dir)
	} else if !os.IsNotExist(err) {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeManifest(dir, len(src.shards)); err != nil {
		return err
	}
	var img []byte
	for i := range src.shards {
		sh := &src.shards[i]
		// The checkpoint's image, minus the WAL rotation volatile engines do
		// not have: the shard's ordinary read lock makes the copy safe
		// against in-place value updates; a quiesced replica (pullers
		// stopped) makes the LSN stamp exact.
		tok := sh.lock.RLock()
		img = sh.snapshotImage(img, lsns[i])
		sh.lock.RUnlock(tok)
		path := filepath.Join(dir, fmt.Sprintf("shard-%04d.snap", i))
		if err := publishFile(path, img); err != nil {
			return fmt.Errorf("kvs: seeding shard %d: %w", i, err)
		}
	}
	return syncDir(dir)
}
