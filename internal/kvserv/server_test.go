package kvserv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"

	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/wire"
)

// TestServerStatsAdaptiveBias: an adaptive engine's per-shard bias mode and
// flip counts flow through the STATS document (GET /stats and the wire STATS
// verb) untouched, and a non-adaptive engine omits the fields entirely.
func TestServerStatsAdaptiveBias(t *testing.T) {
	engine, err := kvs.NewSharded(4, func() rwl.RWLock {
		return core.New(new(stdrw.Lock), core.WithPolicy(bias.NewAdaptor(bias.Thresholds{})))
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.ShardAdaptor(2).ForceMode(bias.ModeNeutral)
	stats := func(e *kvs.Sharded) []byte {
		return New(e, Config{ReapInterval: -1}).execute(rwl.NewReader(), &wire.Request{Op: wire.OpStats}, new(scratch)).Stats
	}
	body := stats(engine)
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("stats shards = %d, want 4", len(st.Shards))
	}
	for i, row := range st.Shards {
		want := "biased"
		if i == 2 {
			want = "neutral"
		}
		if row.BiasMode != want {
			t.Fatalf("shard %d bias_mode = %q, want %q", i, row.BiasMode, want)
		}
	}
	if st.Total.BiasMode != "mixed" || st.Total.BiasFlips != 1 {
		t.Fatalf("total bias = %q/%d, want mixed/1", st.Total.BiasMode, st.Total.BiasFlips)
	}
	if !bytes.Contains(body, []byte(`"bias_mode":"neutral"`)) {
		t.Fatalf("raw /stats body lacks bias_mode field: %s", body)
	}

	// Non-adaptive engines never emit the fields (omitempty + no adaptor).
	if body2 := stats(benchEngine(t)); bytes.Contains(body2, []byte("bias_mode")) {
		t.Fatalf("non-adaptive /stats leaked bias_mode: %s", body2)
	}
}

func ExampleServer() {
	engine, _ := kvs.NewSharded(4, func() rwl.RWLock { return core.New(new(stdrw.Lock)) })
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	srv := New(engine, Config{})
	go srv.Serve(l)
	defer srv.Close()

	base := "http://" + l.Addr().String()
	req, _ := http.NewRequest(http.MethodPut, base+"/kv/7", strings.NewReader("paper"))
	resp, _ := http.DefaultClient.Do(req)
	resp.Body.Close()
	resp, _ = http.Get(base + "/kv/7")
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Println(string(b))
	// Output: paper
}
