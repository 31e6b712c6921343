package kvserv

// The serving-layer replication contract: a durable kvserv is a primary
// (stream endpoints mounted, commit-LSN tokens on writes), a follower
// kvserv serves the replica read-only and honors the tokens. Both ends
// run over real TCP — this is the e2e replication job CI runs.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/repl"
	"github.com/bravolock/bravo/internal/rwl"
)

// startFollowerServer opens a follower of primary and serves it over TCP.
func startFollowerServer(t *testing.T, primary string, cfg Config) (string, *repl.Follower) {
	t.Helper()
	f, err := repl.Open(repl.Config{
		Primary:       primary,
		MkLock:        func() rwl.RWLock { return core.New(new(stdrw.Lock)) },
		RetryInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return startServerWithFollower(t, f, cfg), f
}

func startServerWithFollower(t *testing.T, f *repl.Follower, cfg Config) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewFollower(f, cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return "http://" + l.Addr().String()
}

func TestReplE2EPrimaryAndFollowerServers(t *testing.T) {
	dir := t.TempDir()
	engine, err := kvs.OpenSharded(dir, 8, func() rwl.RWLock { return core.New(new(stdrw.Lock)) }, kvs.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { engine.Close() })
	primaryURL := startServerWith(t, engine, Config{})

	// A write on the primary returns the read-your-writes token.
	resp, _ := do(t, http.MethodPut, primaryURL+"/kv/42", []byte("hello"))
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT status %d", resp.StatusCode)
	}
	token := resp.Header.Get("X-Commit-Lsn")
	shardHdr := resp.Header.Get("X-Commit-Shard")
	if token == "" || shardHdr == "" {
		t.Fatalf("durable PUT missing commit headers: lsn=%q shard=%q", token, shardHdr)
	}
	if want := fmt.Sprintf("%d", engine.ShardOf(42)); shardHdr != want {
		t.Fatalf("X-Commit-Shard = %s, want %s", shardHdr, want)
	}

	// Batched writes return one token per touched shard.
	mput := []byte(`{"entries":[{"key":1,"value":"YQ=="},{"key":2,"value":"Yg=="},{"key":3,"value":"Yw=="}]}`)
	resp, body := do(t, http.MethodPost, primaryURL+"/mput", mput)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mput status %d: %s", resp.StatusCode, body)
	}
	var mr struct {
		Applied int               `json:"applied"`
		LSNs    map[string]uint64 `json:"lsns"`
	}
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Applied != 3 || len(mr.LSNs) == 0 {
		t.Fatalf("mput response %+v: want 3 applied and per-shard lsns", mr)
	}

	// The primary's replication endpoints are mounted.
	resp, body = do(t, http.MethodGet, primaryURL+"/repl/status", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("primary /repl/status: %d", resp.StatusCode)
	}
	var pst repl.Status
	if err := json.Unmarshal(body, &pst); err != nil {
		t.Fatal(err)
	}
	if pst.Shards != 8 || !pst.Durable {
		t.Fatalf("primary status %+v", pst)
	}

	// Follower over real TCP: token-gated read-your-writes.
	followerURL, f := startFollowerServer(t, primaryURL, Config{MinLSNWait: 100 * time.Millisecond})
	resp, body = do(t, http.MethodGet, followerURL+"/kv/42?min_lsn="+token, nil)
	if resp.StatusCode != http.StatusOK || string(body) != "hello" {
		t.Fatalf("follower read-your-writes: %d %q", resp.StatusCode, body)
	}
	// A token from the future 409s after the bounded wait.
	resp, _ = do(t, http.MethodGet, followerURL+"/kv/42?min_lsn=999999", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("future token status %d, want 409", resp.StatusCode)
	}
	// min_lsn gates /mget too.
	if err := f.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	resp, body = do(t, http.MethodGet, followerURL+"/mget?keys=1,2,3&min_lsn="+token, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower mget: %d %s", resp.StatusCode, body)
	}

	// Writes on the follower are refused, naming the primary.
	for _, probe := range []struct{ method, path string }{
		{http.MethodPut, "/kv/7"},
		{http.MethodDelete, "/kv/7"},
		{http.MethodPost, "/mput"},
		{http.MethodPost, "/checkpoint"},
	} {
		resp, body = do(t, probe.method, followerURL+probe.path, []byte("x"))
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s %s on follower: %d, want 403", probe.method, probe.path, resp.StatusCode)
		}
	}

	// Follower stats carry the replication view.
	resp, body = do(t, http.MethodGet, followerURL+"/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower stats: %d", resp.StatusCode)
	}
	var st struct {
		Follower *struct {
			Primary string `json:"primary"`
			Shards  []struct {
				AppliedLSN uint64 `json:"applied_lsn"`
			} `json:"shards"`
		} `json:"follower"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Follower == nil || st.Follower.Primary != primaryURL || len(st.Follower.Shards) != 8 {
		t.Fatalf("follower stats section %+v", st.Follower)
	}
	var applied uint64
	for _, sp := range st.Follower.Shards {
		applied += sp.AppliedLSN
	}
	if applied == 0 {
		t.Fatal("follower stats show no applied LSNs after catch-up")
	}
	resp, _ = do(t, http.MethodGet, followerURL+"/repl/status", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower /repl/status: %d", resp.StatusCode)
	}

	// Durable primary honors its own tokens (and refuses foreign ones).
	resp, _ = do(t, http.MethodGet, primaryURL+"/kv/42?min_lsn="+token, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("primary min_lsn read: %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, primaryURL+"/kv/42?min_lsn=999999", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("primary future-token read: %d, want 409", resp.StatusCode)
	}
}

// TestReplVolatileServerPostures: no WAL, no replication — the endpoints
// are absent, tokens are refused, and writes carry no commit headers.
func TestReplVolatileServerPostures(t *testing.T) {
	url, _ := startServer(t, Config{})
	resp, _ := do(t, http.MethodPut, url+"/kv/1", []byte("v"))
	if resp.Header.Get("X-Commit-Lsn") != "" {
		t.Fatal("volatile PUT returned a commit LSN")
	}
	resp, _ = do(t, http.MethodGet, url+"/repl/stream?shard=0&from=1", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("volatile /repl/stream: %d, want 404 (not mounted)", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, url+"/kv/1?min_lsn=1", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("volatile min_lsn read: %d, want 400", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, url+"/kv/1?min_lsn=bogus", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed min_lsn: %d, want 400", resp.StatusCode)
	}
}
