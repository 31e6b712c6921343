package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Benchmark-side tracing. A traced run wraps every call the load generator
// makes into a layer's public function in a span and reads the layers'
// Stats() at round boundaries. Spans live in a preallocated per-worker ring
// (the newest traceRing survive) and are written out as JSON lines when the
// workload ends; nothing is formatted or flushed while it runs. Spans
// inside the program are not this benchmark's to add.

// spanName indexes spanNames.
type spanName uint8

const (
	spOp spanName = iota // one generated operation, oracle check included: the request root
	spRLockH
	spLock
	spGetIntoH
	spPut
	spMultiPut
	spCompareAndSwap
	spCheckpoint
	spConnStart
	spConnFlush
	spPendingWait
	spHTTPDo
	spFailover
	spWaitCaughtUp
)

var spanNames = [...]string{
	spOp:             "loadgen.op",
	spRLockH:         "core.Lock.RLockH",
	spLock:           "core.Lock.Lock",
	spGetIntoH:       "kvs.Sharded.GetIntoH",
	spPut:            "kvs.Sharded.Put",
	spMultiPut:       "kvs.Sharded.MultiPut",
	spCompareAndSwap: "kvs.Sharded.CompareAndSwap",
	spCheckpoint:     "kvs.Sharded.Checkpoint",
	spConnStart:      "wire.Conn.Start",
	spConnFlush:      "wire.Conn.Flush",
	spPendingWait:    "wire.Pending.Wait",
	spHTTPDo:         "http.Client.Do",
	spFailover:       "cluster.Cluster.Failover",
	spWaitCaughtUp:   "cluster.Cluster.WaitCaughtUp",
}

// traceRing is each worker's span capacity (a power of two).
const traceRing = 1 << 16

type span struct {
	id, parent uint64 // ids count from 1 per worker; parent 0 is a root
	req        uint64 // the generated operation this span belongs to
	start, end int64  // ns since the tracer's epoch
	name       spanName
}

// tracer is one worker's span ring. A nil *tracer records nothing, so the
// untraced path pays one predictable branch per call site.
type tracer struct {
	worker int
	epoch  time.Time
	ring   []span
	n      uint64 // spans begun
	req    uint64 // current operation id
}

func newTracer(worker int, epoch time.Time) *tracer {
	return &tracer{worker: worker, epoch: epoch, ring: make([]span, traceRing)}
}

// begin opens a span under parent and returns its id for end.
func (t *tracer) begin(name spanName, parent uint64) uint64 {
	if t == nil {
		return 0
	}
	t.n++
	t.ring[t.n&(traceRing-1)] = span{id: t.n, parent: parent, req: t.req, name: name, start: int64(time.Since(t.epoch))}
	return t.n
}

// beginOp opens the root span of the next generated operation.
func (t *tracer) beginOp() uint64 {
	if t == nil {
		return 0
	}
	t.req++
	return t.begin(spOp, 0)
}

func (t *tracer) end(id uint64) {
	if t == nil {
		return
	}
	if s := &t.ring[id&(traceRing-1)]; s.id == id {
		s.end = int64(time.Since(t.epoch))
	}
}

// statsEvent is a Stats() reading taken at a round boundary.
type statsEvent struct {
	Event  string             `json:"event"` // "round-start", "round-end", ...
	Round  int                `json:"round"`
	AtNs   int64              `json:"at_ns"`
	Values map[string]float64 `json:"values"`
}

// writeTrace writes the workers' surviving spans and the stats events to
// path as JSON lines and returns the number of spans written.
func writeTrace(path string, tracers []*tracer, events []statsEvent) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	spans := 0
	for _, t := range tracers {
		first := uint64(1)
		if t.n > traceRing {
			first = t.n - traceRing + 1
		}
		for id := first; id <= t.n; id++ {
			s := t.ring[id&(traceRing-1)]
			fmt.Fprintf(bw, `{"worker":%d,"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				t.worker, s.id, s.parent, s.req, spanNames[s.name], s.start, s.end)
			spans++
		}
	}
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			f.Close()
			return spans, err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return spans, err
	}
	return spans, f.Close()
}
