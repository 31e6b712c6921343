package kvserv

// End-to-end coverage of the transaction surface: POST /cas and POST /txn
// over HTTP (single-engine and cluster mode, where cross-partition batches
// answer 400), the wire client's Cas/Txn calls, and the TTL validation
// sweep — zero, negative, and overflowed TTLs answer 400 on every write
// path that accepts one.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/wire"
)

func durableServer(t *testing.T) (string, *kvs.Sharded) {
	t.Helper()
	engine, err := kvs.OpenSharded(t.TempDir(), 8, func() rwl.RWLock { return core.New(new(stdrw.Lock)) }, kvs.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	return startServerWith(t, engine, Config{ReapInterval: -1}), engine
}

func postJSON(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return do(t, http.MethodPost, url, body)
}

func TestServerCasEndpoint(t *testing.T) {
	base, engine := durableServer(t)

	// Only-if-absent install (old null): swaps, and stamps commit headers.
	resp, body := postJSON(t, base+"/cas", casRequest{Key: 1, New: []byte("v1")})
	var cr casResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &cr) != nil || !cr.Swapped {
		t.Fatalf("CAS install = %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Commit-Lsn") == "" {
		t.Fatal("CAS response missing commit headers on a durable engine")
	}

	// Stale expectation: 200 with swapped false, value untouched.
	resp, body = postJSON(t, base+"/cas", casRequest{Key: 1, Old: []byte("stale"), New: []byte("v2")})
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &cr) != nil || cr.Swapped {
		t.Fatalf("stale CAS = %d %s, want swapped=false", resp.StatusCode, body)
	}
	if v, _ := engine.Get(1); string(v) != "v1" {
		t.Fatalf("stale CAS mutated the value: %q", v)
	}

	// Matching swap, then delete-on-match (new null) empties the key.
	if _, body = postJSON(t, base+"/cas", casRequest{Key: 1, Old: []byte("v1"), New: []byte("v2")}); json.Unmarshal(body, &cr) != nil || !cr.Swapped {
		t.Fatalf("matching CAS: %s", body)
	}
	if _, body = postJSON(t, base+"/cas", casRequest{Key: 1, Old: []byte("v2")}); json.Unmarshal(body, &cr) != nil || !cr.Swapped {
		t.Fatalf("CAS delete-on-match: %s", body)
	}
	if _, ok := engine.Get(1); ok {
		t.Fatal("delete-on-match left the key resident")
	}

	// Malformed body answers 400.
	if resp, _ := do(t, http.MethodPost, base+"/cas", []byte("{")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed CAS body = %d, want 400", resp.StatusCode)
	}
}

func TestServerTxnEndpoint(t *testing.T) {
	base, engine := durableServer(t)
	engine.Put(10, []byte("a"))
	engine.Put(11, []byte("b"))

	// Commit: two conditions (one value match, one must-be-absent), three
	// ops including a repeated key — positional order, last wins.
	resp, body := postJSON(t, base+"/txn", txnRequest{
		If: []txnCond{{Key: 10, Value: []byte("a")}, {Key: 12}},
		Ops: []txnOp{
			{Op: "put", Key: 12, Value: []byte("first")},
			{Op: "delete", Key: 11},
			{Op: "put", Key: 12, Value: []byte("last")},
		},
	})
	var tr txnResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &tr) != nil || !tr.Committed {
		t.Fatalf("txn commit = %d %s", resp.StatusCode, body)
	}
	if len(tr.LSNs) == 0 {
		t.Fatalf("committed txn on a durable engine carried no LSNs: %s", body)
	}
	if v, _ := engine.Get(12); string(v) != "last" {
		t.Fatalf("txn dup-key op order broken: %q", v)
	}
	if _, ok := engine.Get(11); ok {
		t.Fatal("txn delete op did not apply")
	}

	// Mismatch: all-or-nothing, the failing key reported, no LSNs.
	resp, body = postJSON(t, base+"/txn", txnRequest{
		If:  []txnCond{{Key: 10, Value: []byte("wrong")}},
		Ops: []txnOp{{Op: "put", Key: 13, Value: []byte("x")}},
	})
	tr = txnResponse{} // Unmarshal merges: clear the committed round's fields
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &tr) != nil || tr.Committed {
		t.Fatalf("txn mismatch = %d %s, want committed=false", resp.StatusCode, body)
	}
	if tr.Mismatch == nil || *tr.Mismatch != 10 || tr.LSNs != nil {
		t.Fatalf("mismatch report wrong: %s", body)
	}
	if _, ok := engine.Get(13); ok {
		t.Fatal("aborted txn leaked a write")
	}

	// TTL op expires for real.
	if _, body = postJSON(t, base+"/txn", txnRequest{
		Ops: []txnOp{{Op: "put", Key: 14, Value: []byte("brief"), TTL: "40ms"}},
	}); json.Unmarshal(body, &tr) != nil || !tr.Committed {
		t.Fatalf("ttl txn: %s", body)
	}
	if _, ok := engine.Get(14); !ok {
		t.Fatal("ttl key missing before deadline")
	}
	time.Sleep(80 * time.Millisecond)
	if _, ok := engine.Get(14); ok {
		t.Fatal("ttl key survived its deadline")
	}

	// Validation sweep: every malformed batch answers 400.
	for name, req := range map[string]txnRequest{
		"zero ttl":       {Ops: []txnOp{{Op: "put", Key: 1, TTL: "0s"}}},
		"negative ttl":   {Ops: []txnOp{{Op: "put", Key: 1, TTL: "-1s"}}},
		"delete + value": {Ops: []txnOp{{Op: "delete", Key: 1, Value: []byte("x")}}},
		"unknown op":     {Ops: []txnOp{{Op: "upsert", Key: 1}}},
		"no keys":        {},
	} {
		if resp, body := postJSON(t, base+"/txn", req); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s = %d %s, want 400", name, resp.StatusCode, body)
		}
	}
	over := txnRequest{}
	for k := uint64(0); k < kvs.MaxTxnKeys+1; k++ {
		over.Ops = append(over.Ops, txnOp{Op: "put", Key: k * 131, Value: []byte("x")})
	}
	if resp, body := postJSON(t, base+"/txn", over); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-budget txn = %d %s, want 400", resp.StatusCode, body)
	}
}

// TestServerTTLRejectsNonPositive pins satellite semantics on every HTTP
// TTL intake: zero, negative, and non-parsing TTLs are 400s, never silent
// no-TTL writes or born-expired keys.
func TestServerTTLRejectsNonPositive(t *testing.T) {
	base, engine := startServer(t, Config{ReapInterval: -1})
	for _, ttl := range []string{"0s", "-1s", "0", "-300ms", "99999999999999999999h"} {
		resp, body := do(t, http.MethodPut, base+fmt.Sprintf("/kv/1?ttl=%s", ttl), []byte("x"))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("PUT ttl=%s = %d %s, want 400", ttl, resp.StatusCode, body)
		}
		mput, _ := json.Marshal(mputRequest{Entries: []mputEntry{{Key: 2, Value: []byte("x")}}, TTL: ttl})
		if resp, body := do(t, http.MethodPost, base+"/mput", mput); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("MPUT ttl=%s = %d %s, want 400", ttl, resp.StatusCode, body)
		}
	}
	if engine.Len() != 0 {
		t.Fatalf("rejected TTL writes landed: Len = %d", engine.Len())
	}
}

func TestClusterCasTxnEndpoints(t *testing.T) {
	c, _, base := startClusterServer(t, 2, 0)

	// Install and swap through the cluster face; headers carry the triple.
	resp, body := postJSON(t, base+"/cas", casRequest{Key: 5, New: []byte("v1")})
	var ccr clusterCasResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &ccr) != nil || !ccr.Swapped {
		t.Fatalf("cluster CAS = %d %s", resp.StatusCode, body)
	}
	commitHeaders(t, resp)

	// Keys from one partition commit; the batch's tokens are triples.
	var same []uint64
	for k := uint64(0); len(same) < 2; k++ {
		if c.Partition(k) == c.Partition(5) && k != 5 {
			same = append(same, k)
		}
	}
	resp, body = postJSON(t, base+"/txn", txnRequest{
		If: []txnCond{{Key: 5, Value: []byte("v1")}},
		Ops: []txnOp{
			{Op: "put", Key: same[0], Value: []byte("x")},
			{Op: "put", Key: same[1], Value: []byte("y")},
		},
	})
	var ctr clusterTxnResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &ctr) != nil || !ctr.Committed {
		t.Fatalf("cluster txn = %d %s", resp.StatusCode, body)
	}
	if len(ctr.Commits) == 0 {
		t.Fatalf("cluster txn carried no commit triples: %s", body)
	}

	// A batch spanning partitions is rejected up front with 400.
	var other uint64
	for k := uint64(0); ; k++ {
		if c.Partition(k) != c.Partition(5) {
			other = k
			break
		}
	}
	resp, body = postJSON(t, base+"/txn", txnRequest{
		Ops: []txnOp{
			{Op: "put", Key: 5, Value: []byte("x")},
			{Op: "put", Key: other, Value: []byte("y")},
		},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cross-partition txn = %d %s, want 400", resp.StatusCode, body)
	}

	// Mismatch is still a 200-level outcome through the cluster.
	resp, body = postJSON(t, base+"/txn", txnRequest{
		If:  []txnCond{{Key: 5, Value: []byte("stale")}},
		Ops: []txnOp{{Op: "put", Key: 5, Value: []byte("z")}},
	})
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &ctr) != nil || ctr.Committed {
		t.Fatalf("cluster txn mismatch = %d %s", resp.StatusCode, body)
	}
	if ctr.Mismatch == nil || *ctr.Mismatch != 5 {
		t.Fatalf("cluster mismatch report wrong: %s", body)
	}
}

func TestWireCasTxn(t *testing.T) {
	addr, engine, _ := startWireServer(t, nil, Config{ReapInterval: -1})
	c := dialWire(t, addr)

	if r := wireDo(t, c, wire.Request{Op: wire.OpCas, Key: 1, New: []byte("v1")}); r.Status != wire.StatusOK || !r.Swapped {
		t.Fatalf("CAS install = %v, status %v", r.Swapped, r.Status)
	}
	if r := wireDo(t, c, wire.Request{Op: wire.OpCas, Key: 1, Old: []byte("stale"), New: []byte("v2")}); r.Status != wire.StatusOK || r.Swapped {
		t.Fatalf("stale CAS = %v, status %v, want false", r.Swapped, r.Status)
	}

	r := wireDo(t, c, wire.Request{Op: wire.OpTxn,
		Conds: []wire.TxnCond{{Key: 1, Value: []byte("v1")}, {Key: 2}},
		TxnOps: []wire.TxnOp{
			{Key: 2, Value: []byte("first")},
			{Key: 3, Del: true},
			{Key: 2, Value: []byte("last")},
		}})
	if r.Status != wire.StatusOK || !r.Committed {
		t.Fatalf("TXN commit = %v, status %v", r.Committed, r.Status)
	}
	if v, _ := engine.Get(2); string(v) != "last" {
		t.Fatalf("wire txn dup-key order broken: %q", v)
	}

	r = wireDo(t, c, wire.Request{Op: wire.OpTxn,
		Conds:  []wire.TxnCond{{Key: 1, Value: []byte("wrong")}},
		TxnOps: []wire.TxnOp{{Key: 4, Value: []byte("x")}}})
	if r.Status != wire.StatusOK || r.Committed || r.Mismatch != 1 {
		t.Fatalf("TXN mismatch = %v/%d, status %v, want false/1/OK", r.Committed, r.Mismatch, r.Status)
	}
	if _, ok := engine.Get(4); ok {
		t.Fatal("aborted wire txn leaked a write")
	}

	// Over-budget batches answer StatusBadRequest.
	var bigOps []wire.TxnOp
	for k := uint64(0); k < kvs.MaxTxnKeys+1; k++ {
		bigOps = append(bigOps, wire.TxnOp{Key: k * 131, Value: []byte("x")})
	}
	if r := wireDo(t, c, wire.Request{Op: wire.OpTxn, TxnOps: bigOps}); r.Status != wire.StatusBadRequest {
		t.Fatalf("over-budget wire txn: status %v, want StatusBadRequest", r.Status)
	}
}

func TestClusterWireCasTxn(t *testing.T) {
	c, srv, _ := startClusterServer(t, 2, 0)
	wc := dialWire(t, addWireListener(t, srv))

	r := wireDo(t, wc, wire.Request{Op: wire.OpCas, Key: 5, New: []byte("v1")})
	if r.Status != wire.StatusOK || !r.Swapped {
		t.Fatalf("cluster wire CAS = %v, status %v", r.Swapped, r.Status)
	}
	if len(r.LSNs) != 1 || r.LSNs[0].Epoch == 0 {
		t.Fatalf("cluster wire CAS token not an epoch triple: %+v", r.LSNs)
	}

	var same uint64
	for k := uint64(0); ; k++ {
		if c.Partition(k) == c.Partition(5) && k != 5 {
			same = k
			break
		}
	}
	r = wireDo(t, wc, wire.Request{Op: wire.OpTxn,
		Conds:  []wire.TxnCond{{Key: 5, Value: []byte("v1")}},
		TxnOps: []wire.TxnOp{{Key: same, Value: []byte("x")}}})
	if r.Status != wire.StatusOK || !r.Committed {
		t.Fatalf("cluster wire TXN = %v, status %v", r.Committed, r.Status)
	}
	if len(r.LSNs) == 0 {
		t.Fatal("cluster wire TXN carried no tokens")
	}

	var other uint64
	for k := uint64(0); ; k++ {
		if c.Partition(k) != c.Partition(5) {
			other = k
			break
		}
	}
	if r := wireDo(t, wc, wire.Request{Op: wire.OpTxn, TxnOps: []wire.TxnOp{
		{Key: 5, Value: []byte("x")},
		{Key: other, Value: []byte("y")},
	}}); r.Status != wire.StatusBadRequest {
		t.Fatalf("cross-partition wire txn: status %v, want StatusBadRequest", r.Status)
	}
}
