package kvserv

// End-to-end certification of the cluster front-ends: the same HTTP and
// wire surface as a single primary, backed by hash-routed partitioned
// primaries. Tokens widen to (epoch, shard, lsn) triples and survive a
// failover; POST /failover promotes over HTTP; a fenced primary answers
// 503 / StatusUnavailable on both faces.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/cluster"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/wire"
)

// startClusterServer boots a cluster-mode server (kvserv.NewClusterServer
// over cluster.Open) on a real TCP socket, mirroring cmd/kvserv -cluster.
func startClusterServer(t *testing.T, partitions, followers int) (*cluster.Cluster, *Server, string) {
	t.Helper()
	c, err := cluster.Open(cluster.Config{
		Partitions:    partitions,
		Shards:        4,
		Followers:     followers,
		Dir:           t.TempDir(),
		Policy:        kvs.SyncNone,
		RetryInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	srv := NewClusterServer(c, Config{ReapInterval: -1})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
		c.Close()
	})
	return c, srv, "http://" + l.Addr().String()
}

// commitHeaders pulls a cluster write's token triple off the response.
func commitHeaders(t *testing.T, resp *http.Response) (shard, lsn, epoch uint64) {
	t.Helper()
	for _, h := range []struct {
		name string
		dst  *uint64
	}{
		{"X-Commit-Shard", &shard}, {"X-Commit-Lsn", &lsn}, {"X-Commit-Epoch", &epoch},
	} {
		v := resp.Header.Get(h.name)
		if v == "" {
			t.Fatalf("write response missing %s", h.name)
		}
		if _, err := fmt.Sscan(v, h.dst); err != nil {
			t.Fatalf("bad %s %q: %v", h.name, v, err)
		}
	}
	return
}

func TestClusterHTTPEndToEnd(t *testing.T) {
	c, _, base := startClusterServer(t, 3, 1)

	// Writes spread across partitions; every token carries epoch 1.
	const n = 60
	tokens := map[uint64][2]uint64{} // key → (lsn, epoch)
	for k := uint64(0); k < n; k++ {
		resp, _ := do(t, http.MethodPut, fmt.Sprintf("%s/kv/%d", base, k), []byte(fmt.Sprintf("v%d", k)))
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("PUT %d: status %d", k, resp.StatusCode)
		}
		_, lsn, epoch := commitHeaders(t, resp)
		if epoch != 1 || lsn == 0 {
			t.Fatalf("PUT %d: token (lsn %d, epoch %d), want epoch 1 and nonzero lsn", k, lsn, epoch)
		}
		tokens[k] = [2]uint64{lsn, epoch}
	}

	// Token-gated read-your-writes on each key.
	for k := uint64(0); k < n; k++ {
		tok := tokens[k]
		resp, body := do(t, http.MethodGet, fmt.Sprintf("%s/kv/%d?min_lsn=%d&epoch=%d", base, k, tok[0], tok[1]), nil)
		if resp.StatusCode != http.StatusOK || string(body) != fmt.Sprintf("v%d", k) {
			t.Fatalf("GET %d: status %d body %q", k, resp.StatusCode, body)
		}
	}

	// MGET fans out across partitions.
	resp, body := do(t, http.MethodGet, base+"/mget?keys=0,1,2,3,4,5,6,7", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("MGET: status %d", resp.StatusCode)
	}
	var mg mgetResponse
	if err := json.Unmarshal(body, &mg); err != nil {
		t.Fatal(err)
	}
	if len(mg.Values) != 8 || string(mg.Values[3]) != "v3" {
		t.Fatalf("MGET values = %q", mg.Values)
	}

	// MPUT returns the token triple of every global shard touched.
	var sb strings.Builder
	sb.WriteString(`{"entries":[`)
	for i := 0; i < 10; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"key":%d,"value":"YmF0Y2g="}`, 100+i)
	}
	sb.WriteString(`]}`)
	resp, body = do(t, http.MethodPost, base+"/mput", []byte(sb.String()))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("MPUT: status %d body %s", resp.StatusCode, body)
	}
	var mp struct {
		Applied int `json:"applied"`
		Commits []struct {
			Shard uint32 `json:"shard"`
			LSN   uint64 `json:"lsn"`
			Epoch uint64 `json:"epoch"`
		} `json:"commits"`
	}
	if err := json.Unmarshal(body, &mp); err != nil {
		t.Fatal(err)
	}
	if mp.Applied != 10 || len(mp.Commits) == 0 {
		t.Fatalf("MPUT applied %d, %d commits", mp.Applied, len(mp.Commits))
	}
	for _, cm := range mp.Commits {
		if cm.Epoch != 1 {
			t.Fatalf("MPUT commit epoch %d, want 1", cm.Epoch)
		}
	}

	// DELETE answers the token triple too; a second delete is a miss.
	resp, _ = do(t, http.MethodDelete, base+"/kv/100", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	if _, lsn, epoch := commitHeaders(t, resp); epoch != 1 || lsn == 0 {
		t.Fatalf("DELETE token (lsn %d, epoch %d)", lsn, epoch)
	}
	resp, _ = do(t, http.MethodDelete, base+"/kv/100", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE: status %d, want 404", resp.StatusCode)
	}

	// TTL writes route through the cluster like plain ones.
	resp, _ = do(t, http.MethodPut, base+"/kv/200?ttl=1h", []byte("expiring"))
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("TTL PUT: status %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodPost, base+"/checkpoint", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: status %d", resp.StatusCode)
	}

	// Malformed write options are refused before touching the engine.
	for _, bad := range []string{
		"/kv/1?ttl=forever", "/kv/1?async=1&ttl=forever",
	} {
		resp, _ = do(t, http.MethodPut, base+bad, []byte("x"))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("PUT %s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	// So are malformed tokens.
	for _, bad := range []string{
		"/kv/1?min_lsn=abc", "/kv/1?min_lsn=1&epoch=xyz",
	} {
		resp, _ = do(t, http.MethodGet, base+bad, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// Stats exposes the per-partition topology.
	resp, body = do(t, http.MethodGet, base+"/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	var st struct {
		NumShards int `json:"num_shards"`
		Cluster   *struct {
			Partitions int `json:"partitions"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil || st.Cluster.Partitions != 3 {
		t.Fatalf("stats cluster section = %+v", st.Cluster)
	}

	// Graceful failover over HTTP: partition 1 bumps to epoch 2; epoch-1
	// tokens stay honored (zero-loss cut) and the keyspace is intact.
	if err := c.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	resp, body = do(t, http.MethodPost, base+"/failover/1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover: status %d body %s", resp.StatusCode, body)
	}
	var fo map[string]uint64
	if err := json.Unmarshal(body, &fo); err != nil {
		t.Fatal(err)
	}
	if fo["epoch"] != 2 {
		t.Fatalf("failover epoch = %d, want 2", fo["epoch"])
	}
	for k := uint64(0); k < n; k++ {
		tok := tokens[k]
		resp, body := do(t, http.MethodGet, fmt.Sprintf("%s/kv/%d?min_lsn=%d&epoch=%d", base, k, tok[0], tok[1]), nil)
		if resp.StatusCode != http.StatusOK || string(body) != fmt.Sprintf("v%d", k) {
			t.Fatalf("post-failover GET %d: status %d body %q", k, resp.StatusCode, body)
		}
	}

	// A token claiming a future epoch is malformed, not a conflict.
	resp, _ = do(t, http.MethodGet, base+"/kv/1?min_lsn=1&epoch=99", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("future-epoch token: status %d, want 400", resp.StatusCode)
	}
	// Bad partition numbers are rejected.
	resp, _ = do(t, http.MethodPost, base+"/failover/9", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("failover/9: status %d, want 400", resp.StatusCode)
	}

	// Fence a live primary out from under the router (a deposed primary
	// that hasn't been swapped yet): routed writes answer 503, retryable.
	pi := c.Partition(0)
	c.Member(pi).Fence()
	resp, _ = do(t, http.MethodPut, base+"/kv/0", []byte("stale"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fenced PUT: status %d, want 503", resp.StatusCode)
	}
}

func TestClusterWireEndToEnd(t *testing.T) {
	c, srv, _ := startClusterServer(t, 3, 1)
	wc := dialWire(t, addWireListener(t, srv))

	// Single put: one (global shard, lsn, epoch) triple.
	r := wireDo(t, wc, wire.Request{Op: wire.OpPut, Key: 42, Value: []byte("hello")})
	if r.Status != wire.StatusOK || len(r.LSNs) != 1 || r.LSNs[0].LSN == 0 || r.LSNs[0].Epoch != 1 {
		t.Fatalf("cluster wire PUT tokens = %v, status %v, want one epoch-1 triple", r.LSNs, r.Status)
	}
	tok := r.LSNs[0]
	getTok := wire.Request{Op: wire.OpGet, Key: 42, MinLSN: tok.LSN, Epoch: tok.Epoch}
	if r := wireDo(t, wc, getTok); r.Status != wire.StatusOK || string(r.Value) != "hello" {
		t.Fatalf("GET with token = %q, status %v", r.Value, r.Status)
	}

	// Batch ops fan out per partition; the epoch list survives the wire.
	keys := make([]uint64, 24)
	vals := make([][]byte, 24)
	for i := range keys {
		keys[i] = uint64(i)
		vals[i] = []byte(fmt.Sprintf("b%d", i))
	}
	r = wireDo(t, wc, wire.Request{Op: wire.OpMPut, Keys: keys, Values: vals})
	if r.Status != wire.StatusOK || len(r.LSNs) == 0 {
		t.Fatalf("cluster wire MPUT returned tokens %v, status %v", r.LSNs, r.Status)
	}
	minLSN := r.LSNs[0].LSN
	for _, l := range r.LSNs {
		if l.Epoch != 1 {
			t.Fatalf("MPUT token epoch = %d, want 1", l.Epoch)
		}
		if l.LSN < minLSN {
			minLSN = l.LSN
		}
	}
	r = wireDo(t, wc, wire.Request{Op: wire.OpMGet, Keys: keys, MinLSN: minLSN, Epoch: 1})
	if r.Status != wire.StatusOK || len(r.Values) != len(keys) {
		t.Fatalf("MGET with token: %d values, status %v", len(r.Values), r.Status)
	}
	for i := range keys {
		if string(r.Values[i]) != string(vals[i]) {
			t.Fatalf("MGET[%d] = %q, want %q", i, r.Values[i], vals[i])
		}
	}

	// Delete answers a token triple; a second delete is a clean miss.
	if r := wireDo(t, wc, wire.Request{Op: wire.OpDelete, Key: 5}); r.Status != wire.StatusOK || len(r.LSNs) != 1 || r.LSNs[0].Epoch != 1 {
		t.Fatalf("DELETE 5 = %v, status %v", r.LSNs, r.Status)
	}
	if r := wireDo(t, wc, wire.Request{Op: wire.OpDelete, Key: 5}); r.Status != wire.StatusNotFound {
		t.Fatalf("second DELETE 5: status %v, want a miss", r.Status)
	}
	if r := wireDo(t, wc, wire.Request{Op: wire.OpMDelete, Keys: keys[10:14]}); r.Status != wire.StatusOK || r.Applied != 4 {
		t.Fatalf("MDELETE = %d, status %v; want 4 removed", r.Applied, r.Status)
	}

	// A future-epoch token is malformed on the wire as well.
	if r := wireDo(t, wc, wire.Request{Op: wire.OpGet, Key: 42, MinLSN: 1, Epoch: 99}); r.Status != wire.StatusBadRequest {
		t.Fatalf("future-epoch token: status %v, want StatusBadRequest", r.Status)
	}

	// Stats over the wire carries the cluster document.
	if r := wireDo(t, wc, wire.Request{Op: wire.OpStats}); !strings.Contains(string(r.Stats), `"cluster"`) {
		t.Fatalf("wire stats missing cluster section: status %v, %s", r.Status, r.Stats)
	}

	// Failover: new writes carry epoch 2; the epoch-1 token is still
	// honored after a graceful cut.
	if err := c.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	pi := c.Partition(42)
	if _, err := c.Failover(pi); err != nil {
		t.Fatal(err)
	}
	if r := wireDo(t, wc, wire.Request{Op: wire.OpPut, Key: 42, Value: []byte("hello2")}); r.Status != wire.StatusOK || len(r.LSNs) != 1 || r.LSNs[0].Epoch != 2 {
		t.Fatalf("post-failover PUT tokens = %v, status %v, want epoch 2", r.LSNs, r.Status)
	}
	if r := wireDo(t, wc, getTok); r.Status != wire.StatusOK || string(r.Value) != "hello2" {
		t.Fatalf("stale-epoch GET with token = %q, status %v", r.Value, r.Status)
	}

	// A fenced primary still in the routing table: StatusUnavailable.
	c.Member(pi).Fence()
	if r := wireDo(t, wc, wire.Request{Op: wire.OpPut, Key: 42, Value: []byte("stale")}); r.Status != wire.StatusUnavailable {
		t.Fatalf("fenced wire PUT: status %v, want StatusUnavailable", r.Status)
	}
}
