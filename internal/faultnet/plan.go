// Package faultnet is a deterministic fault-injection layer for any
// transport.Network. It wraps the real fabric and applies a scriptable
// schedule of faults on the send path: per-link drop/delay/duplicate/reorder
// rules, asymmetric partitions, node crash/restart black-holes, and slow-core
// stalls, all triggered either from the start or at a chosen global message
// count.
//
// # Determinism contract
//
// A Plan is pure data: given the same plan (including its seed), two runs
// inject the same fault schedule — the same rules activate and the same
// events fire at the same global send counts, and the serialized plan is
// byte-for-byte identical. Random per-message decisions (drops, duplicates,
// reorders, delay jitter) are drawn from a private splitmix64 stream per
// (source endpoint, destination endpoint) link, seeded as
//
//	mix64(seed ^ src.Node<<48 ^ src.Core<<32 ^ dst.Node<<16 ^ dst.Core)
//
// so each link's decision sequence is a pure function of the plan seed and
// that link's own send sequence — concurrent senders on different links never
// perturb each other's streams. What stays scheduler-dependent is which
// wall-clock message is the Nth send globally (event triggers count sends,
// not wall time) and how per-link streams interleave; the *schedule* — which
// faults exist and when they activate in the count domain — does not.
//
// The layer injects faults the underlying transport is already specified to
// exhibit (messages may be dropped, delayed, reordered, or duplicated), so
// correct protocol code needs no changes to run under it.
package faultnet

import (
	"encoding/json"
	"fmt"
	"time"
)

// Any matches every node or core in a Rule selector.
const Any = -1

// Rule is one steady-state link fault. Selectors match the transport
// addresses of the sending and receiving endpoints; Any (-1) is a wildcard.
// The first rule that matches a message applies; later rules are ignored for
// that message, which keeps the per-message draw sequence well defined.
type Rule struct {
	// ID names the rule so an event can remove it (OpClearRule).
	ID string `json:"id,omitempty"`

	// SrcNode/DstNode/SrcCore/DstCore select the link; Any matches all.
	SrcNode int `json:"src_node"`
	DstNode int `json:"dst_node"`
	SrcCore int `json:"src_core"`
	DstCore int `json:"dst_core"`

	// DropProb is the probability the message is silently discarded.
	DropProb float64 `json:"drop_prob,omitempty"`
	// DupProb is the probability the message is delivered twice.
	DupProb float64 `json:"dup_prob,omitempty"`
	// ReorderProb is the probability the message is held back and released
	// only after the next message on the same link, swapping their order.
	// At most one message per link is held at a time.
	ReorderProb float64 `json:"reorder_prob,omitempty"`
	// DelayProb gates the extra latency below; 1 delays every message the
	// rule matches (a slow link or a stalled core).
	DelayProb float64 `json:"delay_prob,omitempty"`
	// Delay is the base extra latency; Jitter adds a uniform random extra
	// in [0, Jitter).
	Delay  time.Duration `json:"delay,omitempty"`
	Jitter time.Duration `json:"jitter,omitempty"`
}

// EveryLink returns r selecting every link: all four selectors Any. A rule
// literal that leaves them out selects node 0, core 0 — the zero values.
func EveryLink(r Rule) Rule {
	r.SrcNode, r.DstNode, r.SrcCore, r.DstCore = Any, Any, Any, Any
	return r
}

// matches reports whether the rule selects the (src, dst) link.
func (r *Rule) matches(srcNode, srcCore, dstNode, dstCore uint32) bool {
	return (r.SrcNode == Any || uint32(r.SrcNode) == srcNode) &&
		(r.DstNode == Any || uint32(r.DstNode) == dstNode) &&
		(r.SrcCore == Any || uint32(r.SrcCore) == srcCore) &&
		(r.DstCore == Any || uint32(r.DstCore) == dstCore)
}

// validate rejects out-of-range probabilities and negative delays.
func (r *Rule) validate() error {
	for _, p := range []float64{r.DropProb, r.DupProb, r.ReorderProb, r.DelayProb} {
		if p < 0 || p > 1 {
			return fmt.Errorf("faultnet: rule %q: probability %v out of [0,1]", r.ID, p)
		}
	}
	if r.Delay < 0 || r.Jitter < 0 {
		return fmt.Errorf("faultnet: rule %q: negative delay", r.ID)
	}
	return nil
}

// Op is the kind of a scheduled Event.
type Op string

// Event operations.
const (
	// OpCrash black-holes a node: every message to or from it is dropped.
	// The event is also delivered to the Events channel so a harness can
	// stop the real replica behind the node id.
	OpCrash Op = "crash"
	// OpRestart removes a node's black-hole. Delivered to the Events
	// channel so a harness can restart and recover the real replica.
	OpRestart Op = "restart"
	// OpPartition splits the network: nodes may talk only within their
	// group. Nodes not listed in any group form one implicit extra group.
	// Replaces any previous partition.
	OpPartition Op = "partition"
	// OpHeal removes the partition (crash black-holes are unaffected).
	OpHeal Op = "heal"
	// OpRule installs Event.Rule ahead of the currently active rules.
	OpRule Op = "rule"
	// OpClearRule removes every active rule whose ID equals Event.RuleID.
	OpClearRule Op = "clear-rule"
)

// Event is one scheduled fault transition, fired when the global send count
// reaches At. Events with equal At fire in plan order.
type Event struct {
	// At is the global message-send count that triggers the event; an
	// event with At == 0 fires before the first send.
	At uint64 `json:"at"`
	Op Op     `json:"op"`

	// Node is the target of OpCrash/OpRestart.
	Node uint32 `json:"node,omitempty"`
	// Groups are the partition components of OpPartition.
	Groups [][]uint32 `json:"groups,omitempty"`
	// Rule is installed by OpRule.
	Rule *Rule `json:"rule,omitempty"`
	// RuleID selects the rules removed by OpClearRule.
	RuleID string `json:"rule_id,omitempty"`
}

func (e *Event) validate() error {
	switch e.Op {
	case OpCrash, OpRestart, OpPartition, OpHeal:
	case OpRule:
		if e.Rule == nil {
			return fmt.Errorf("faultnet: %s event at %d has no rule", e.Op, e.At)
		}
		return e.Rule.validate()
	case OpClearRule:
		if e.RuleID == "" {
			return fmt.Errorf("faultnet: clear-rule event at %d has no rule id", e.At)
		}
	default:
		return fmt.Errorf("faultnet: unknown event op %q", e.Op)
	}
	return nil
}

// Plan is a complete, serializable fault schedule: a seed for the per-link
// decision streams, the rules active from the start, and the event script.
// The zero value is a valid no-fault plan.
type Plan struct {
	// Seed derives every per-link PRNG. Two runs of the same plan use the
	// same streams.
	Seed int64 `json:"seed"`
	// Rules are active from the first message.
	Rules []Rule `json:"rules,omitempty"`
	// Events fire in order of At (stable within equal counts).
	Events []Event `json:"events,omitempty"`
}

// Validate rejects malformed plans: out-of-range probabilities, negative
// delays, unknown ops, and events out of At order (sortedness is part of the
// plan's identity — the schedule artifact must replay exactly as written).
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i := range p.Rules {
		if err := p.Rules[i].validate(); err != nil {
			return err
		}
	}
	var last uint64
	for i := range p.Events {
		if err := p.Events[i].validate(); err != nil {
			return err
		}
		if p.Events[i].At < last {
			return fmt.Errorf("faultnet: events out of order: event %d at %d after %d",
				i, p.Events[i].At, last)
		}
		last = p.Events[i].At
	}
	return nil
}

// Dump renders the plan indented and field-stable, so the serialized
// schedule is a byte-for-byte reproducible artifact suitable for diffing
// across runs and uploading from CI on failure.
func (p *Plan) Dump() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// Load parses a plan previously serialized with Dump (schedule replay).
func Load(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("faultnet: parsing plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}
