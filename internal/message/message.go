// Package message defines the wire messages exchanged by Meerkat and the
// three comparison systems (KuaFu++, TAPIR-like, Meerkat-PB), along with a
// compact binary codec used by the UDP transport.
//
// All systems share this message layer, mirroring the paper's prototype in
// which all four systems share one transport layer "avoiding differences due
// to different approaches to serializing and deserializing wire formats".
package message

import (
	"fmt"

	"meerkat/internal/timestamp"
)

// Type identifies a protocol message.
type Type uint8

// Message types, in groups: the Meerkat/TAPIR transaction protocol, recovery,
// the primary-backup baselines (KuaFu++ and Meerkat-PB), the PUT-only KV of
// Figure 1, then later additions. The type byte leads every encoding, in the
// write-ahead log too: a retired number stays blank, and a type whose row
// (codec.go) changes so that an old log would be misread takes a new number.
const (
	TypeInvalid Type = iota

	// 1 and 2 were the one-key read pair, retired for TypeMultiRead.
	_
	_

	// Validation phase (Meerkat and TAPIR-like).
	TypeValidate      // coordinator -> all replicas: OCC-validate txn at ts
	TypeValidateReply // replica -> coordinator: VALIDATED-OK / VALIDATED-ABORT
	TypeAccept        // coordinator -> all replicas: slow-path proposal
	TypeAcceptReply   // replica -> coordinator
	TypeCommit        // coordinator -> all replicas: final outcome (async)

	// Recovery.
	TypeEpochChange         // recovery coordinator -> replicas
	TypeEpochChangeAck      // replica -> recovery coordinator, carries trecord
	TypeEpochChangeComplete // recovery coordinator -> replicas, merged trecord
	TypeCoordChange         // backup coordinator -> replicas (prepare-like)
	TypeCoordChangeAck      // replica -> backup coordinator

	// Primary-backup baselines.
	TypePBSubmit    // client -> primary: whole txn (KuaFu++ / Meerkat-PB)
	TypePBReply     // primary -> client: outcome
	TypePBReplicate // primary -> backups: one committed txn's writes
	TypePBAck       // backup -> primary

	// Figure 1 micro-benchmark.
	TypePut      // client -> server: blind put
	TypePutReply // server -> client

	// Recovery, appended: ends the epoch change's install round.
	TypeEpochChangeCompleteAck // replica core -> recovery coordinator

	// Local control message: a core sends it to itself through its endpoint,
	// so all trecord access stays on the owning core.
	TypeSweep // core -> itself: scan for stalled txns

	// Replica state transfer (recovery, §5.3.1). A StateRequest paginates by
	// shard in Seq and carries two optional delta bounds: TS (ship keys whose
	// WTS/RTS passed it) and SinceWall, the donor-side apply-time bound (ship
	// keys whose commit the donor applied at or after it).
	TypeStateRequest // recovering replica -> live replica: one shard
	TypeStateReply   // live replica -> recovering replica

	// Batched execution phase: one round trip fetches a whole read set's
	// worth of keys from one partition (§5.2.1's "reads go to any replica",
	// amortized).
	TypeMultiRead      // coordinator -> any replica: read Keys, in order
	TypeMultiReadReply // replica -> coordinator: Reads[i] answers Keys[i]

	// 25 and 26 were the durability records when every type carried every
	// field: replay refuses a log or snapshot that holds them.
	_
	_

	// Durability records (internal/wal). These never cross the network; they
	// are the payloads of CRC-framed entries in the per-core write-ahead logs
	// and snapshot files, reusing this codec so the log format gets the same
	// pooled, fuzz-hardened encode/decode as the wire.
	TypeWALRecord   // one committed transaction: Txn + TS
	TypeWALSnapshot // one page of a vstore snapshot: State + Seq (shard)
)

var typeNames = [...]string{
	TypeInvalid:             "invalid",
	TypeValidate:            "validate",
	TypeValidateReply:       "validate-reply",
	TypeAccept:              "accept",
	TypeAcceptReply:         "accept-reply",
	TypeCommit:              "commit",
	TypeEpochChange:         "epoch-change",
	TypeEpochChangeAck:      "epoch-change-ack",
	TypeEpochChangeComplete: "epoch-change-complete",
	TypeCoordChange:         "coordinator-change",
	TypeCoordChangeAck:      "coordinator-change-ack",
	TypePBSubmit:            "pb-submit",
	TypePBReply:             "pb-reply",
	TypePBReplicate:         "pb-replicate",
	TypePBAck:               "pb-ack",
	TypePut:                 "put",
	TypePutReply:            "put-reply",

	TypeEpochChangeCompleteAck: "epoch-change-complete-ack",
	TypeSweep:                  "sweep",
	TypeStateRequest:           "state-request",
	TypeStateReply:             "state-reply",
	TypeMultiRead:              "multi-read",
	TypeMultiReadReply:         "multi-read-reply",
	TypeWALRecord:              "wal-record",
	TypeWALSnapshot:            "wal-snapshot",
}

// String returns the message type's protocol name.
func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Status is the state of a transaction as recorded in the trecord and
// carried in protocol messages.
type Status uint8

// Transaction statuses, in the vocabulary of the paper's Figure 2 and §5.
const (
	StatusNone           Status = iota
	StatusValidatedOK           // replica validated the txn successfully
	StatusValidatedAbort        // replica's OCC checks failed
	StatusAcceptCommit          // slow-path proposal to commit, accepted
	StatusAcceptAbort           // slow-path proposal to abort, accepted
	StatusCommitted             // final: committed
	StatusAborted               // final: aborted
)

var statusNames = [...]string{
	StatusNone:           "NONE",
	StatusValidatedOK:    "VALIDATED-OK",
	StatusValidatedAbort: "VALIDATED-ABORT",
	StatusAcceptCommit:   "ACCEPT-COMMIT",
	StatusAcceptAbort:    "ACCEPT-ABORT",
	StatusCommitted:      "COMMITTED",
	StatusAborted:        "ABORTED",
}

// String returns the status name as used in the paper.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Final reports whether s is a terminal outcome (COMMITTED or ABORTED).
func (s Status) Final() bool { return s == StatusCommitted || s == StatusAborted }

// ReadSetEntry records one read the transaction performed during execution:
// the key, the version (write timestamp) that was read, and a hash of the
// value observed.
//
// The value hash exists because of commutative ops: an op committing below
// the latest version re-materializes the values above it, so — unlike under
// the plain Thomas write rule — the observable value at a given WTS can
// change after it was read. Validation therefore checks both that the read
// saw the latest write timestamp AND that the value at that timestamp is
// still the value the transaction observed; the hash is computed by the
// client (HashValue over the raw bytes read), so replicas compare it against
// their own materialization without any extra wire round trip.
type ReadSetEntry struct {
	Key   string
	WTS   timestamp.Timestamp
	VHash uint64
}

// WriteSetEntry records one buffered write.
type WriteSetEntry struct {
	Key   string
	Value []byte
}

// Txn is a transaction's identity and read/write/op sets, as shipped in a
// validate request. OpSet carries the commutative server-side operations
// (see OpSetEntry): they validate without read-version checks and are folded
// into the version chain at commit-timestamp order.
type Txn struct {
	ID       timestamp.TxnID
	ReadSet  []ReadSetEntry
	WriteSet []WriteSetEntry
	OpSet    []OpSetEntry
}

// Empty reports whether the transaction carries no reads, writes, or ops —
// the replica-side test for "this validate/accept body teaches us nothing".
func (t *Txn) Empty() bool {
	return len(t.ReadSet) == 0 && len(t.WriteSet) == 0 && len(t.OpSet) == 0
}

// TRecordEntry is one transaction record, as exchanged during epoch changes.
// It mirrors the fields of the paper's Figure 2 plus the two recovery fields
// View and AcceptView (§5.3.2).
type TRecordEntry struct {
	Txn        Txn
	TS         timestamp.Timestamp
	Status     Status
	View       uint64
	AcceptView uint64
	CoreID     uint32 // trecord partition the entry belongs to
}

// ReadResult is one key's answer in a multi-read reply: the latest committed
// value and version, or OK=false (with zero WTS) for a key that has never
// been written — still a meaningful read that validation will check.
//
// Op carries the kind of the version that produced the value (OpNone for a
// plain write). Snapshot reads need it: op-derived versions re-materialize in
// place when older ops merge below them, so the read-only fast path applies a
// stricter settlement rule to them than to plain writes.
type ReadResult struct {
	Value []byte
	WTS   timestamp.Timestamp
	OK    bool
	Op    OpKind
}

// KeyState is one key's committed state: its latest version plus its read
// timestamp (a key that was only read has a zero WTS and no value). It is the
// one form in which committed state moves between stores, from
// vstore.ExportShard into vstore.ImportState, and it has four uses: state
// transfer to a recovering replica (TypeStateReply), WAL snapshot pages
// (TypeWALSnapshot), the boot reconcile of a durable group's replayed stores,
// and split migration of a moved range.
type KeyState struct {
	Key   string
	Value []byte
	WTS   timestamp.Timestamp
	RTS   timestamp.Timestamp
}

// Addr identifies a message endpoint: a node and a core (server thread) on
// that node. Core-level addressing is how the prototype reproduces the
// paper's NIC flow steering — every message for a given transaction is
// delivered to the same core's queue.
type Addr struct {
	Node uint32
	Core uint32
}

// String formats the address as "node/core".
func (a Addr) String() string { return fmt.Sprintf("%d/%d", a.Node, a.Core) }

// Message is a single protocol message. It is a flat union: each Type carries
// the fields its layout row (codec.go) names. Flat structs keep the inproc hot
// path free of interface conversions and per-type allocations.
type Message struct {
	Type Type
	Src  Addr // reply address, filled by the transport on send

	// Transaction protocol fields.
	Txn    Txn
	TID    timestamp.TxnID
	TS     timestamp.Timestamp
	Status Status
	View   uint64
	CoreID uint32

	// Put fields.
	Key   string
	Value []byte
	OK    bool

	// Recovery fields.
	Epoch   uint64
	Records []TRecordEntry

	// Seq numbers a request for its reply to echo (a read round, a put, a
	// KuaFu++ log position) or names a shard (state transfer, snapshot pages).
	Seq uint64

	// State transfer payload.
	State []KeyState

	// ReplicaID identifies the responding replica in replies.
	ReplicaID uint32

	// Batched execution phase. A multi-read request carries Keys; the reply
	// carries Reads, index-aligned with the request's Keys.
	//
	// A multi-read request with a non-zero TS is a snapshot read: the replica
	// answers every key at that timestamp (newest version at or below TS) and
	// raises each key's read timestamp to TS so no later validation can slip
	// a write underneath the snapshot.
	//
	// A message that fills them itself does so through OwnKeys and OwnReads,
	// into arrays it owns; a literal may point them at the caller's.
	Keys  []string
	Reads []ReadResult

	// Watermark is attached to multi-read replies: the minimum, over the
	// requested keys, of the timestamp up to which this replica can vouch
	// that no prepared-but-undecided transaction will still commit. For a
	// snapshot read at TS=s, Watermark == s means the reply is *confirmed* —
	// every answered version is final with respect to this replica.
	Watermark timestamp.Timestamp

	// Shard routing. MapVersion on a request is the shard-map version the client
	// routed with; on a redirect reply it is the replica's own view version,
	// so the client knows whether a refresh can help yet. WrongShard set on a
	// reply means the replica no longer owns (one of) the requested keys
	// under its current shard map: the request was not executed and the
	// client must refresh its map and re-route.
	MapVersion uint64
	WrongShard bool

	owned
}

// owned is what a message owns, the only payload storage that survives
// ReleaseMessage: the arrays OwnKeys and OwnReads hand out, those a decode
// fills Txn's sets into, and the image of the datagram it was last decoded from
// (arena.go) — empty unless it was decoded and has not disowned it. Unexported,
// so an array a caller put into Keys, Reads or Txn never enters the pool.
type owned struct {
	keys     []string
	reads    []ReadResult
	readSet  []ReadSetEntry
	writeSet []WriteSetEntry
	opSet    []OpSetEntry
	arena    []byte
}

// SinceWall is a state-request's apply-time bound: a reading of the
// deployment's clock (0: none). It travels in the slot the transaction
// protocol calls View, which a state-request has no other use for: the struct
// is a flat union, so the slot is named here and in the type's layout row.
func (m *Message) SinceWall() int64 { return int64(m.View) }

// SetSinceWall sets a state-request's apply-time bound.
func (m *Message) SetSinceWall(t int64) { m.View = uint64(t) }

// String gives a short human-readable rendering for logs and test failures.
func (m *Message) String() string {
	switch m.Type {
	case TypeValidate:
		return fmt.Sprintf("validate{%v @%v core=%d}", m.Txn.ID, m.TS, m.CoreID)
	case TypeValidateReply:
		return fmt.Sprintf("validate-reply{%v %v r%d}", m.TID, m.Status, m.ReplicaID)
	case TypeAccept:
		return fmt.Sprintf("accept{%v %v view=%d}", m.TID, m.Status, m.View)
	case TypeAcceptReply:
		return fmt.Sprintf("accept-reply{%v ok=%v r%d}", m.TID, m.OK, m.ReplicaID)
	case TypeCommit:
		return fmt.Sprintf("commit{%v %v}", m.TID, m.Status)
	case TypeMultiRead:
		return fmt.Sprintf("multi-read{%d keys seq=%d}", len(m.Keys), m.Seq)
	case TypeMultiReadReply:
		return fmt.Sprintf("multi-read-reply{%d reads seq=%d r%d}", len(m.Reads), m.Seq, m.ReplicaID)
	default:
		return fmt.Sprintf("%v{tid=%v}", m.Type, m.TID)
	}
}
