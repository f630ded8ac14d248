package main

import (
	"fmt"
	"sync"
	"time"

	"hyparview/internal/msg"
)

// msgKind groups wire message types under one per-layer metric name.
type msgKind struct {
	name  string
	types []msg.Type // nil: every type no other kind claims
}

// simMsgKinds are the kinds counted on the simulated network: the
// membership handlers that dominate set-up, and the broadcast payloads.
var simMsgKinds = []msgKind{
	{"join", []msg.Type{msg.Join}},
	{"forward_join", []msg.Type{msg.ForwardJoin}},
	{"neighbor", []msg.Type{msg.Neighbor, msg.NeighborReply}},
	{"shuffle", []msg.Type{msg.Shuffle}},
	{"shuffle_reply", []msg.Type{msg.ShuffleReply}},
	{"disconnect", []msg.Type{msg.Disconnect}},
	{"gossip", []msg.Type{msg.Gossip}},
	{"plumtree", []msg.Type{msg.PlumtreeGossip, msg.PlumtreeIHave, msg.PlumtreeGraft, msg.PlumtreePrune}},
	{"other", nil},
}

// rxMsgKinds are the kinds counted on frames received over TCP.
var rxMsgKinds = []msgKind{
	{"gossip", []msg.Type{msg.Gossip}},
	{"plumtree_gossip", []msg.Type{msg.PlumtreeGossip}},
	{"plumtree_ihave", []msg.Type{msg.PlumtreeIHave}},
	{"plumtree_graft", []msg.Type{msg.PlumtreeGraft}},
	{"plumtree_prune", []msg.Type{msg.PlumtreePrune}},
	{"shuffle", []msg.Type{msg.Shuffle, msg.ShuffleReply}},
	{"ping_pong", []msg.Type{msg.Ping, msg.Pong}},
	{"other", nil},
}

// kindIndex maps every message type to its kind's index in kinds.
func kindIndex(kinds []msgKind) [256]uint8 {
	var idx [256]uint8
	other := len(kinds) - 1
	for t := range idx {
		idx[t] = uint8(other)
	}
	for i, k := range kinds {
		for _, t := range k.types {
			idx[t] = uint8(i)
		}
	}
	return idx
}

// msgCounter counts intercepted messages per kind and their encoded bytes,
// and keeps a sample of them for the codec timing. It is safe for
// concurrent use (transport intercepts run on reader goroutines).
type msgCounter struct {
	mu     sync.Mutex
	kinds  []msgKind
	idx    [256]uint8
	counts []uint64
	bytes  uint64
	seen   uint64
	sample []msg.Message
	every  uint64 // keep one message in every `every`
	limit  int
}

func newMsgCounter(kinds []msgKind, every uint64, limit int) *msgCounter {
	return &msgCounter{kinds: kinds, idx: kindIndex(kinds), counts: make([]uint64, len(kinds)), every: every, limit: limit}
}

// observe counts m. The message is cloned before it is kept: the sender
// may reuse its buffers.
func (c *msgCounter) observe(m *msg.Message) {
	c.mu.Lock()
	c.counts[c.idx[m.Type]]++
	c.bytes += uint64(msg.EncodedSize(*m))
	c.seen++
	if c.seen%c.every == 0 && len(c.sample) < c.limit {
		c.sample = append(c.sample, m.Clone())
	}
	c.mu.Unlock()
}

// fill writes prefix+kind counts into layer and returns the encoded bytes
// observed and the kept sample.
func (c *msgCounter) fill(layer map[string]float64, prefix string) (bytes uint64, sample []msg.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, k := range c.kinds {
		layer[prefix+k.name] = float64(c.counts[i])
	}
	return c.bytes, c.sample
}

func zeroKinds(layer map[string]float64, prefix string, kinds []msgKind) {
	for _, k := range kinds {
		layer[prefix+k.name] = 0
	}
}

// codecTiming times msg.AppendEncode and msg.Decode over sample, the
// workload's own captured messages, repeating the sample until at least
// minDur has passed. It returns nanoseconds per message for each, and an
// error when a captured message does not decode from its own encoding.
func codecTiming(sample []msg.Message, minDur time.Duration) (encodeNs, decodeNs float64, err error) {
	if len(sample) == 0 {
		return 0, 0, nil
	}
	encoded := make([][]byte, len(sample))
	for i, m := range sample {
		encoded[i] = msg.Encode(m)
	}
	buf := make([]byte, 0, 4096)
	var n int
	start := time.Now()
	for time.Since(start) < minDur {
		for _, m := range sample {
			buf = msg.AppendEncode(buf[:0], m)
		}
		n += len(sample)
	}
	encodeNs = float64(time.Since(start).Nanoseconds()) / float64(n)
	n = 0
	start = time.Now()
	for time.Since(start) < minDur {
		for _, b := range encoded {
			if _, _, err := msg.Decode(b); err != nil {
				return 0, 0, fmt.Errorf("captured %d-byte message does not decode: %w", len(b), err)
			}
		}
		n += len(encoded)
	}
	decodeNs = float64(time.Since(start).Nanoseconds()) / float64(n)
	return encodeNs, decodeNs, nil
}
