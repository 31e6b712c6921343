// Package wire is the engine's pipelined binary protocol: the front-end
// that turns one network batch into one lock acquisition per shard, end to
// end. HTTP/1.x parses text, allocates headers, and serializes one op per
// round trip; the wire protocol frames fixed-width binary requests with
// the same length-prefixed CRC envelope the WAL and the replication stream
// already use (internal/frame), supports multi-op batches (MGET/MPUT/
// MDELETE) that the server feeds straight into the engine's shard-grouping
// pass, and pipelines: a client may have any number of requests in flight
// on one connection, matched to responses by request id.
//
// Message layout (integers little-endian; the envelope is
// internal/frame's `u32 len | u32 crc32c | payload`):
//
//	request  := u8 version(=1) | u8 op | u8 flags | u64 id
//	            [u64 minLSN]  when flagMinLSN    (read-your-writes token)
//	            [u64 epoch]   when flagEpoch     (the token's fencing epoch;
//	                                              requires flagMinLSN)
//	            [u64 ttlNanos] when flagTTL
//	            body
//	body     := GET/DELETE:   u64 key
//	            PUT:          u64 key | u32 vlen | vlen bytes
//	            MGET/MDELETE: u32 count | count × u64 key
//	            MPUT:         u32 count | count × (u64 key | u32 vlen | vlen bytes)
//	            CAS:          u64 key | optval old | optval new
//	            TXN:          u32 ncond | ncond × (u64 key | optval)
//	                          | u32 nops | nops × txnop
//	            STATS, REPL_STATUS: empty
//	            REPL_STREAM:  u64 shard | u64 from
//	optval   := u8 present(0|1) | present? (u32 vlen | vlen bytes)
//	txnop    := u8 kind(1=put 2=putttl 3=delete) | u64 key
//	            | kind=put:    u32 vlen | vlen bytes
//	            | kind=putttl: u64 ttlNanos(>0) | u32 vlen | vlen bytes
//
//	response := u8 version(=1) | u8 op | u8 status | u8 flags | u64 id
//	            [u32 mlen | mlen bytes]  when status != OK (detail message)
//	            [body]                   when status == OK
//	            [u32 n | n × (u32 shard | u64 lsn)]  when flagLSNs
//	            ... or n × (u32 shard | u64 lsn | u64 epoch) when flagEpochs
//	                too (cluster responses; requires flagLSNs)
//	body     := GET:          u32 vlen | vlen bytes
//	            MGET:         u32 count | count × (u8 present | present? u32 vlen | vlen bytes)
//	            MPUT/MDELETE: u32 applied
//	            STATS:        u32 jlen | jlen bytes (the /stats JSON document)
//	            REPL_STATUS:  u32 jlen | jlen bytes (the repl.Status JSON document)
//	            CAS:          u8 swapped(0|1)
//	            TXN:          u8 committed(0|1) | committed=0: u64 mismatchKey
//	            PUT/DELETE/REPL_STREAM: empty
//
// The trailing shard/LSN pairs are the binary form of the HTTP front-end's
// X-Commit-Shard/X-Commit-Lsn headers (and /mput's "lsns" map): the commit
// LSN of every shard a write touched, which a client hands back as a
// request's MinLSN to read its writes from a follower. Replication
// semantics survive the transport change byte for byte.
//
// Decoders are strict — every field must parse and the payload must end
// exactly at the last one — and never panic, whatever the bytes
// (FuzzWireFrame). Framing errors split the same way the WAL's do:
// Incomplete means wait for more bytes, Corrupt means the connection is
// unrecoverable and closes.
package wire

import (
	"encoding/binary"
	"time"

	"github.com/bravolock/bravo/internal/frame"
)

// Version is the protocol version every message leads with.
const Version = 1

// DefaultMaxFrame bounds an accepted frame's total length (header +
// payload): a shade over the HTTP front-end's 16MB batch cap, so any batch
// admissible there is admissible here, while a malicious length header
// cannot make a peer buffer gigabytes. frame.MaxPayload is the codec's
// absolute bound; this is the wire's admission cap on top of it.
const DefaultMaxFrame = 17 << 20

// Op identifies a request's operation; responses echo it.
type Op byte

// Operations. The multi-op batches (MGET/MPUT/MDELETE) are the protocol's
// point: the server applies each through the engine's shard-grouping pass,
// so one wire batch is one lock acquisition — and one bias revocation —
// per shard it touches.
// Op 7 (FLUSH) is retired, never reused: an old client's FLUSH is refused.
const (
	OpGet     Op = 1
	OpPut     Op = 2
	OpDelete  Op = 3
	OpMGet    Op = 4
	OpMPut    Op = 5
	OpMDelete Op = 6
	OpStats   Op = 8
	// OpCas is single-key compare-and-swap; OpTxn is a conditional atomic
	// batch (preconditions on current values plus writes, applied
	// all-or-nothing under the engine's two-phase locking). Both follow the
	// HTTP front-end's POST /cas and /txn semantics byte for byte.
	OpCas Op = 9
	OpTxn Op = 10
	// OpReplStatus and OpReplStream are replication's (internal/repl): a
	// primary's posture, and one shard's WAL from a resume LSN — an OK
	// response, then the WAL frames verbatim on the same connection.
	OpReplStatus Op = 11
	OpReplStream Op = 12
)

// String names op for errors and stats.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpDelete:
		return "DELETE"
	case OpMGet:
		return "MGET"
	case OpMPut:
		return "MPUT"
	case OpMDelete:
		return "MDELETE"
	case OpStats:
		return "STATS"
	case OpCas:
		return "CAS"
	case OpTxn:
		return "TXN"
	case OpReplStatus:
		return "REPL_STATUS"
	case OpReplStream:
		return "REPL_STREAM"
	}
	return "Op(?)"
}

// Status is a response's outcome, mirroring the HTTP front-end's statuses.
type Status byte

const (
	// StatusOK: the operation succeeded; the body is op-specific.
	StatusOK Status = 0
	// StatusNotFound: GET miss or DELETE of an absent key (the HTTP 404).
	StatusNotFound Status = 1
	// StatusBadRequest: the request decoded but is semantically invalid
	// (e.g. MinLSN against a volatile server).
	StatusBadRequest Status = 2
	// StatusReadOnly: a write sent to a follower (the HTTP 403).
	StatusReadOnly Status = 3
	// StatusConflict: a MinLSN token the serving side cannot cover (the
	// HTTP 409) — retry, or read the primary.
	StatusConflict Status = 4
	// StatusTooLarge: a value over the server's per-value cap (HTTP 413).
	StatusTooLarge Status = 5
	// StatusUnsupported: an op the server does not recognize — the one
	// response a server sends for a frame it could parse but not serve.
	StatusUnsupported Status = 6
	// StatusUnavailable: the partition owning the key is mid-failover (its
	// primary is fenced and a follower is being promoted) — retry shortly
	// (the HTTP 503).
	StatusUnavailable Status = 7
)

// String names st for errors.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not found"
	case StatusBadRequest:
		return "bad request"
	case StatusReadOnly:
		return "read-only"
	case StatusConflict:
		return "conflict"
	case StatusTooLarge:
		return "too large"
	case StatusUnsupported:
		return "unsupported"
	case StatusUnavailable:
		return "unavailable"
	}
	return "Status(?)"
}

// Request flag bits. 1<<1 (async PUT) is retired, never reused: it is refused.
const (
	reqFlagTTL    = 1 << 0
	reqFlagMinLSN = 1 << 2
	// reqFlagEpoch accompanies reqFlagMinLSN on cluster reads: a u64 fencing
	// epoch follows the minLSN, scoping the token to the primary generation
	// that issued it. Requires reqFlagMinLSN (an epoch without a token is
	// meaningless and rejected).
	reqFlagEpoch = 1 << 3
)

// Response flag bits.
const (
	respFlagLSNs = 1 << 0
	// respFlagEpochs widens the trailing commit-LSN list from (shard, lsn)
	// pairs to (shard, lsn, epoch) triples — the cluster's fenced
	// read-your-writes token. Requires respFlagLSNs.
	respFlagEpochs = 1 << 1
)

// Request is one decoded (or to-be-encoded) wire request.
type Request struct {
	Op Op
	// ID is the pipelining correlation token: the client picks it, the
	// response echoes it. Conn manages IDs itself; hand-built requests
	// choose their own.
	ID uint64
	// TTL, when positive, attaches an expiry to PUT/MPUT.
	TTL time.Duration
	// MinLSN, when nonzero, is a read-your-writes token: every shard the
	// read touches must have applied at least this LSN.
	MinLSN uint64
	// Epoch, when nonzero, scopes MinLSN to the fencing epoch of the cluster
	// primary that issued it. Only meaningful with MinLSN set; a cluster
	// front-end uses it to adjudicate tokens issued before a failover.
	Epoch uint64

	Key    uint64   // GET/PUT/DELETE/CAS, and REPL_STREAM's shard
	From   uint64   // REPL_STREAM: the first LSN wanted
	Value  []byte   // PUT (aliases the decode buffer)
	Keys   []uint64 // MGET/MPUT/MDELETE
	Values [][]byte // MPUT, parallel to Keys (alias the decode buffer)

	// Old and New are CAS's compared and replacement values: a nil Old
	// means "only if absent", a nil New means "delete on match". Empty
	// non-nil values are distinct from nil on the wire (a presence byte).
	Old []byte
	New []byte
	// Conds and TxnOps carry TXN's preconditions and writes.
	Conds  []TxnCond
	TxnOps []TxnOp
}

// TxnCond is one TXN precondition: the key's current value must equal
// Value (nil Value = the key must be absent) for the batch to commit.
type TxnCond struct {
	Key   uint64
	Value []byte // nil = must be absent (aliases the decode buffer)
}

// TxnOp is one TXN write: a delete, or a put with an optional expiry.
type TxnOp struct {
	Del   bool
	Key   uint64
	Value []byte        // put payload (aliases the decode buffer)
	TTL   time.Duration // put expiry; 0 = none, must be positive when set
}

// TXN op kind bytes on the wire.
const (
	txnOpPut    = 1
	txnOpPutTTL = 2
	txnOpDelete = 3
)

// ShardLSN is one shard's commit LSN in a response: the read-your-writes
// token, binary form of the X-Commit-Shard/X-Commit-Lsn header pair. In
// cluster responses Epoch carries the issuing partition's fencing epoch
// (respFlagEpochs); single-primary responses leave it zero.
type ShardLSN struct {
	Shard uint32
	LSN   uint64
	Epoch uint64
}

// Response is one decoded (or to-be-encoded) wire response.
type Response struct {
	Op     Op
	ID     uint64
	Status Status
	// Msg is the non-OK detail (the HTTP error body).
	Msg string
	// Value is a GET hit's bytes (aliases the decode buffer).
	Value []byte
	// Values answers MGET, parallel to the request's keys; nil marks
	// absent (entries alias the decode buffer).
	Values [][]byte
	// Applied is MPUT's applied count or MDELETE's removed count.
	Applied uint32
	// Stats is STATS's JSON document (the /stats response body) or REPL_STATUS's.
	Stats []byte
	// Swapped answers CAS; Committed answers TXN, with Mismatch carrying
	// the first failing precondition's key when Committed is false.
	Swapped   bool
	Committed bool
	Mismatch  uint64
	// LSNs carries the commit LSN of every shard a write touched.
	LSNs []ShardLSN
}

// AppendRequest frames req onto dst and returns the extended slice: one
// ready-to-write wire frame (envelope included). The zero-copy form —
// header reserved, payload built in place, sealed once.
func AppendRequest(dst []byte, req *Request) []byte {
	base := len(dst)
	dst = append(dst, make([]byte, frame.HeaderSize)...)
	flags := byte(0)
	if req.TTL > 0 {
		flags |= reqFlagTTL
	}
	if req.MinLSN > 0 {
		flags |= reqFlagMinLSN
		if req.Epoch > 0 {
			flags |= reqFlagEpoch
		}
	}
	dst = append(dst, Version, byte(req.Op), flags)
	dst = binary.LittleEndian.AppendUint64(dst, req.ID)
	if flags&reqFlagMinLSN != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, req.MinLSN)
	}
	if flags&reqFlagEpoch != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, req.Epoch)
	}
	if flags&reqFlagTTL != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(req.TTL))
	}
	switch req.Op {
	case OpGet, OpDelete:
		dst = binary.LittleEndian.AppendUint64(dst, req.Key)
	case OpPut:
		dst = binary.LittleEndian.AppendUint64(dst, req.Key)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(req.Value)))
		dst = append(dst, req.Value...)
	case OpMGet, OpMDelete:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(req.Keys)))
		for _, k := range req.Keys {
			dst = binary.LittleEndian.AppendUint64(dst, k)
		}
	case OpMPut:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(req.Keys)))
		for i, k := range req.Keys {
			dst = binary.LittleEndian.AppendUint64(dst, k)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(req.Values[i])))
			dst = append(dst, req.Values[i]...)
		}
	case OpReplStream:
		dst = binary.LittleEndian.AppendUint64(dst, req.Key)
		dst = binary.LittleEndian.AppendUint64(dst, req.From)
	case OpCas:
		dst = binary.LittleEndian.AppendUint64(dst, req.Key)
		dst = appendOptValue(dst, req.Old)
		dst = appendOptValue(dst, req.New)
	case OpTxn:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(req.Conds)))
		for _, c := range req.Conds {
			dst = binary.LittleEndian.AppendUint64(dst, c.Key)
			dst = appendOptValue(dst, c.Value)
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(req.TxnOps)))
		for _, o := range req.TxnOps {
			switch {
			case o.Del:
				dst = append(dst, txnOpDelete)
				dst = binary.LittleEndian.AppendUint64(dst, o.Key)
			case o.TTL > 0:
				dst = append(dst, txnOpPutTTL)
				dst = binary.LittleEndian.AppendUint64(dst, o.Key)
				dst = binary.LittleEndian.AppendUint64(dst, uint64(o.TTL))
				dst = binary.LittleEndian.AppendUint32(dst, uint32(len(o.Value)))
				dst = append(dst, o.Value...)
			default:
				dst = append(dst, txnOpPut)
				dst = binary.LittleEndian.AppendUint64(dst, o.Key)
				dst = binary.LittleEndian.AppendUint32(dst, uint32(len(o.Value)))
				dst = append(dst, o.Value...)
			}
		}
	}
	frame.Seal(dst[base:])
	return dst
}

// appendOptValue encodes a presence-tagged value: nil is absent, anything
// else (the empty value included) is present with its bytes.
func appendOptValue(dst, v []byte) []byte {
	if v == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v)))
	return append(dst, v...)
}

// optValue reads one presence-tagged value. Strict: the presence byte must
// be 0 or 1. An absent value decodes to nil; a present empty one to a
// non-nil empty slice.
func optValue(c *frame.Cursor) []byte {
	switch c.U8() {
	case 0:
		return nil
	case 1:
		return c.Bytes(int(c.U32()))
	}
	c.Fail()
	return nil
}

// bit reads a u8 that must be 0 or 1.
func bit(c *frame.Cursor) bool {
	b := c.U8()
	if b > 1 {
		c.Fail()
	}
	return b == 1
}

// RequestHeader parses a request's fixed prefix — version, op, flags, id —
// leniently: ok reports only that p is long enough and leads with Version.
// DecodeRequest starts from it, and a server answers a frame whose body is
// malformed by the id it returns.
func RequestHeader(p []byte) (op Op, id uint64, ok bool) {
	if len(p) < 3+8 || p[0] != Version {
		return 0, 0, false
	}
	return Op(p[1]), binary.LittleEndian.Uint64(p[3:]), true
}

// DecodeRequest parses one request payload (the frame body, after
// frame.Split). Strict: every field must parse and the payload must end
// exactly at the last one. It never panics, whatever the bytes.
func DecodeRequest(p []byte) (Request, bool) {
	var req Request
	var ok bool
	if req.Op, req.ID, ok = RequestHeader(p); !ok {
		return req, false
	}
	flags := p[2]
	// Unknown flag bits are rejected, not ignored: silently dropping them
	// would make a request mean something other than what its sender
	// encoded (and break decode→encode canonical stability). An epoch scopes
	// a token; an epoch without one is not a canonical encoding either.
	if flags&^(reqFlagTTL|reqFlagMinLSN|reqFlagEpoch) != 0 ||
		flags&reqFlagEpoch != 0 && flags&reqFlagMinLSN == 0 {
		return req, false
	}
	c := frame.NewCursor(p[3+8:])
	// Each flag promises a nonzero token, a nonzero epoch, a positive TTL:
	// the encoder expresses "none" by clearing the flag, so a zero under it
	// is not a canonical encoding.
	if flags&reqFlagMinLSN != 0 {
		if req.MinLSN = c.U64(); req.MinLSN == 0 {
			c.Fail()
		}
	}
	if flags&reqFlagEpoch != 0 {
		if req.Epoch = c.U64(); req.Epoch == 0 {
			c.Fail()
		}
	}
	if flags&reqFlagTTL != 0 {
		if req.TTL = time.Duration(c.U64()); req.TTL <= 0 {
			c.Fail()
		}
	}
	switch req.Op {
	case OpGet, OpDelete:
		req.Key = c.U64()
	case OpPut:
		req.Key = c.U64()
		req.Value = c.Bytes(int(c.U32()))
	case OpMGet, OpMDelete:
		req.Keys = make([]uint64, c.Count(8))
		for i := range req.Keys {
			req.Keys[i] = c.U64()
		}
	case OpMPut:
		n := c.Count(8 + 4)
		req.Keys = make([]uint64, n)
		req.Values = make([][]byte, n)
		for i := range req.Keys {
			req.Keys[i] = c.U64()
			req.Values[i] = c.Bytes(int(c.U32()))
		}
	case OpReplStream:
		req.Key = c.U64()
		req.From = c.U64()
	case OpCas:
		req.Key = c.U64()
		req.Old = optValue(&c)
		req.New = optValue(&c)
	case OpTxn:
		req.Conds = make([]TxnCond, c.Count(8+1)) // key + presence byte
		for i := range req.Conds {
			req.Conds[i].Key = c.U64()
			req.Conds[i].Value = optValue(&c)
		}
		req.TxnOps = make([]TxnOp, c.Count(1+8)) // kind + key
		for i := range req.TxnOps {
			o := &req.TxnOps[i]
			kind := c.U8()
			o.Key = c.U64()
			switch kind {
			case txnOpDelete:
				o.Del = true
			case txnOpPutTTL:
				// The request-level TTL flag's rule: the putttl kind promises
				// a positive expiry.
				if o.TTL = time.Duration(c.U64()); o.TTL <= 0 {
					c.Fail()
				}
				fallthrough
			case txnOpPut:
				o.Value = c.Bytes(int(c.U32()))
			default:
				c.Fail()
			}
		}
	case OpStats, OpReplStatus:
	default:
		return req, false
	}
	return req, c.Done()
}

// AppendResponse frames resp onto dst and returns the extended slice.
func AppendResponse(dst []byte, resp *Response) []byte {
	base := len(dst)
	dst = append(dst, make([]byte, frame.HeaderSize)...)
	flags := byte(0)
	if len(resp.LSNs) > 0 {
		flags |= respFlagLSNs
		// Any nonzero epoch widens the whole list to triples: the entries
		// come from one cluster partition, so they share an encoding.
		for _, sl := range resp.LSNs {
			if sl.Epoch > 0 {
				flags |= respFlagEpochs
				break
			}
		}
	}
	dst = append(dst, Version, byte(resp.Op), byte(resp.Status), flags)
	dst = binary.LittleEndian.AppendUint64(dst, resp.ID)
	if resp.Status != StatusOK {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resp.Msg)))
		dst = append(dst, resp.Msg...)
	} else {
		switch resp.Op {
		case OpGet:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resp.Value)))
			dst = append(dst, resp.Value...)
		case OpMGet:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resp.Values)))
			for _, v := range resp.Values {
				if v == nil {
					dst = append(dst, 0)
					continue
				}
				dst = append(dst, 1)
				dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v)))
				dst = append(dst, v...)
			}
		case OpMPut, OpMDelete:
			dst = binary.LittleEndian.AppendUint32(dst, resp.Applied)
		case OpStats, OpReplStatus:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resp.Stats)))
			dst = append(dst, resp.Stats...)
		case OpCas:
			b := byte(0)
			if resp.Swapped {
				b = 1
			}
			dst = append(dst, b)
		case OpTxn:
			if resp.Committed {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
				dst = binary.LittleEndian.AppendUint64(dst, resp.Mismatch)
			}
		}
	}
	if flags&respFlagLSNs != 0 {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resp.LSNs)))
		for _, sl := range resp.LSNs {
			dst = binary.LittleEndian.AppendUint32(dst, sl.Shard)
			dst = binary.LittleEndian.AppendUint64(dst, sl.LSN)
			if flags&respFlagEpochs != 0 {
				dst = binary.LittleEndian.AppendUint64(dst, sl.Epoch)
			}
		}
	}
	frame.Seal(dst[base:])
	return dst
}

// DecodeResponse parses one response payload. Strict, panic-free, same
// contract as DecodeRequest.
func DecodeResponse(p []byte) (Response, bool) {
	var resp Response
	if len(p) < 4+8 || p[0] != Version {
		return resp, false
	}
	resp.Op = Op(p[1])
	resp.Status = Status(p[2])
	flags := p[3]
	// Unknown flag bits: see DecodeRequest. Epochs widen the LSN list; alone
	// they carry nothing.
	if flags&^(respFlagLSNs|respFlagEpochs) != 0 ||
		flags&respFlagEpochs != 0 && flags&respFlagLSNs == 0 {
		return resp, false
	}
	resp.ID = binary.LittleEndian.Uint64(p[4:])
	c := frame.NewCursor(p[4+8:])
	if resp.Status != StatusOK {
		resp.Msg = string(c.Bytes(int(c.U32())))
	} else {
		switch resp.Op {
		case OpGet:
			resp.Value = c.Bytes(int(c.U32()))
		case OpMGet:
			resp.Values = make([][]byte, c.Count(1))
			for i := range resp.Values {
				resp.Values[i] = optValue(&c)
			}
		case OpMPut, OpMDelete:
			resp.Applied = c.U32()
		case OpStats, OpReplStatus:
			resp.Stats = c.Bytes(int(c.U32()))
		case OpCas:
			resp.Swapped = bit(&c)
		case OpTxn:
			if resp.Committed = bit(&c); !resp.Committed {
				resp.Mismatch = c.U64()
			}
		case OpPut, OpDelete, OpReplStream:
		default:
			return resp, false
		}
	}
	if flags&respFlagLSNs != 0 {
		width := 4 + 8
		if flags&respFlagEpochs != 0 {
			width += 8
		}
		// An empty list is rejected too: the encoder expresses "no LSNs" by
		// clearing the flag, so the empty-list-with-flag shape is not a
		// canonical encoding.
		n := c.Count(width)
		if n == 0 {
			c.Fail()
		}
		resp.LSNs = make([]ShardLSN, n)
		sawEpoch := false
		for i := range resp.LSNs {
			sl := &resp.LSNs[i]
			sl.Shard = c.U32()
			sl.LSN = c.U64()
			if flags&respFlagEpochs != 0 {
				sl.Epoch = c.U64()
				sawEpoch = sawEpoch || sl.Epoch > 0
			}
		}
		if flags&respFlagEpochs != 0 && !sawEpoch {
			// All-zero epochs under the flag re-encode as pairs — not a
			// canonical triple encoding.
			c.Fail()
		}
	}
	return resp, c.Done()
}
