// Package netsim provides the simulated network substrate the RingNet
// protocol runs on: named nodes connected by directed links with
// configurable latency, jitter, loss probability, and bandwidth. The
// substrate replaces the paper's mobile-Internet testbed; the protocol
// observes only message arrival, delay, and loss, all of which are
// reproduced here deterministically from a seed.
package netsim

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
)

// Handler receives messages delivered to a node.
type Handler interface {
	Recv(from seq.NodeID, m msg.Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from seq.NodeID, m msg.Message)

// Recv calls f(from, m).
func (f HandlerFunc) Recv(from seq.NodeID, m msg.Message) { f(from, m) }

// LinkParams describes one directed link's quality.
type LinkParams struct {
	// Latency is the fixed propagation delay.
	Latency sim.Time
	// Jitter adds a uniform random extra delay in [0, Jitter].
	Jitter sim.Time
	// Loss is the probability a transmission is dropped.
	Loss float64
	// Bandwidth in bytes per virtual second; 0 means unlimited. The
	// serialization delay of an n-byte message is n/Bandwidth seconds.
	Bandwidth int64
}

// DefaultWired are typical wired-backbone parameters (2 ms, no loss).
var DefaultWired = LinkParams{Latency: 2 * sim.Millisecond}

// DefaultWireless are typical last-hop wireless parameters: higher
// latency, jitter and a non-zero bit-error-driven loss probability
// (paper §1 concern (B)).
var DefaultWireless = LinkParams{Latency: 8 * sim.Millisecond, Jitter: 4 * sim.Millisecond, Loss: 0.01}

type link struct {
	params LinkParams
	up     bool
	// lastArrival enforces per-link FIFO: a message never overtakes an
	// earlier one on the same link (jitter is clamped).
	lastArrival sim.Time
	// busyUntil models serialization: the next transmission starts
	// after the previous one finished serializing.
	busyUntil sim.Time
}

type endpoint struct {
	handler Handler
	crashed bool
}

// delivery is one scheduled in-flight transmission — a single message,
// or a burst of messages sharing one arrival (SendBurst). Deliveries are
// pooled and dispatched through the scheduler's closure-free AtCall, so
// a Send allocates nothing once the pool is warm.
type delivery struct {
	net  *Network
	dst  *endpoint
	from seq.NodeID
	to   seq.NodeID
	m    msg.Message
	run  []msg.Message // burst payload; m is nil when set
}

// deliver is the static delivery handler.
func deliver(v any) {
	d := v.(*delivery)
	n, dst, from, to, m, run := d.net, d.dst, d.from, d.to, d.m, d.run
	d.dst = nil
	d.m = nil
	d.run = nil
	n.free = append(n.free, d)
	if m != nil {
		n.deliverOne(dst, from, to, m)
		return
	}
	// Burst: the run buffer goes back to its pool only after dispatch —
	// handlers may send (and thus borrow buffers) reentrantly.
	if dst.crashed {
		n.stats.DroppedNodeDown += uint64(len(run))
	} else {
		for _, m := range run {
			n.deliverOne(dst, from, to, m)
		}
	}
	for i := range run {
		run[i] = nil // don't retain delivered payloads through the pool
	}
	n.runFree = append(n.runFree, run[:0])
}

func (n *Network) deliverOne(dst *endpoint, from, to seq.NodeID, m msg.Message) {
	if dst.crashed {
		n.stats.DroppedNodeDown++
		return
	}
	n.stats.Delivered++
	if n.Trace != nil {
		n.Trace(n.sched.Now(), from, to, m)
	}
	dst.handler.Recv(from, m)
}

// Stats aggregates network-wide counters. The per-kind counts and the
// data/control split are in Traffic.
type Stats struct {
	Sent            uint64
	Delivered       uint64
	DroppedLoss     uint64
	DroppedLinkDown uint64
	DroppedNodeDown uint64
	DroppedNoRoute  uint64
	Bytes           uint64
}

// Network is the simulated message fabric.
type Network struct {
	sched   *sim.Scheduler
	rng     *sim.RNG
	nodes   map[seq.NodeID]*endpoint
	links   map[[2]seq.NodeID]*link
	free    []*delivery     // recycled delivery records
	runFree [][]msg.Message // recycled burst buffers
	stats   Stats
	traffic metrics.Traffic
	// Trace, when non-nil, observes every delivery (after loss and
	// delay). Useful in tests.
	Trace func(at sim.Time, from, to seq.NodeID, m msg.Message)
	// FIFO enforces in-order per-link delivery (default true; real IP
	// paths reorder rarely, and the paper's per-hop reliability assumes
	// a retransmission scheme, not reordering recovery).
	FIFO bool
}

// New creates an empty network on the given scheduler and RNG stream.
func New(sched *sim.Scheduler, rng *sim.RNG) *Network {
	return &Network{
		sched: sched,
		rng:   rng,
		nodes: make(map[seq.NodeID]*endpoint),
		links: make(map[[2]seq.NodeID]*link),
		FIFO:  true,
	}
}

// Scheduler returns the underlying event scheduler.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// Now returns the current virtual time.
func (n *Network) Now() sim.Time { return n.sched.Now() }

// Stats returns a snapshot of the counters.
func (n *Network) Stats() Stats { return n.stats }

// Traffic returns the send-side accounting: every send attempt counts
// by kind, and the messages that entered a link count by plane.
func (n *Network) Traffic() *metrics.Traffic { return &n.traffic }

// Register attaches a handler to a node identity. Registering an existing
// node replaces its handler and clears its crashed state.
func (n *Network) Register(id seq.NodeID, h Handler) {
	if id == seq.None {
		panic("netsim: registering the None node")
	}
	n.nodes[id] = &endpoint{handler: h}
}

// Unregister removes a node entirely.
func (n *Network) Unregister(id seq.NodeID) { delete(n.nodes, id) }

// Crash marks a node down: it neither sends nor receives until Recover.
func (n *Network) Crash(id seq.NodeID) {
	if ep, ok := n.nodes[id]; ok {
		ep.crashed = true
	}
}

// Recover brings a crashed node back.
func (n *Network) Recover(id seq.NodeID) {
	if ep, ok := n.nodes[id]; ok {
		ep.crashed = false
	}
}

// Crashed reports whether a node is down.
func (n *Network) Crashed(id seq.NodeID) bool {
	ep, ok := n.nodes[id]
	return ok && ep.crashed
}

// Connect installs a bidirectional link with the same parameters each way.
func (n *Network) Connect(a, b seq.NodeID, p LinkParams) {
	n.ConnectDirected(a, b, p)
	n.ConnectDirected(b, a, p)
}

// ConnectDirected installs or replaces one directed link.
func (n *Network) ConnectDirected(from, to seq.NodeID, p LinkParams) {
	n.links[[2]seq.NodeID{from, to}] = &link{params: p, up: true}
}

// Disconnect removes the links between a and b in both directions.
func (n *Network) Disconnect(a, b seq.NodeID) {
	delete(n.links, [2]seq.NodeID{a, b})
	delete(n.links, [2]seq.NodeID{b, a})
}

// SetLinkUp marks both directions of a link up or down (partitions).
func (n *Network) SetLinkUp(a, b seq.NodeID, up bool) {
	if l, ok := n.links[[2]seq.NodeID{a, b}]; ok {
		l.up = up
	}
	if l, ok := n.links[[2]seq.NodeID{b, a}]; ok {
		l.up = up
	}
}

// Linked reports whether a usable directed link from→to exists.
func (n *Network) Linked(from, to seq.NodeID) bool {
	l, ok := n.links[[2]seq.NodeID{from, to}]
	return ok && l.up
}

// LinkParamsOf returns the parameters of the directed link, if present.
func (n *Network) LinkParamsOf(from, to seq.NodeID) (LinkParams, bool) {
	l, ok := n.links[[2]seq.NodeID{from, to}]
	if !ok {
		return LinkParams{}, false
	}
	return l.params, true
}

// Send transmits m from→to, applying loss, serialization, latency and
// jitter. Delivery (if any) happens via the destination handler at a
// later virtual time. Send reports whether the message entered the link
// (false when there is no route, the link is down, or either node is
// crashed — the sender learns nothing either way, exactly like UDP).
func (n *Network) Send(from, to seq.NodeID, m msg.Message) bool {
	n.stats.Sent++
	n.traffic.Kind(m.Kind())

	src, ok := n.nodes[from]
	if !ok || src.crashed {
		n.stats.DroppedNodeDown++
		return false
	}
	dst, ok := n.nodes[to]
	if !ok {
		n.stats.DroppedNoRoute++
		return false
	}
	l, ok := n.links[[2]seq.NodeID{from, to}]
	if !ok {
		n.stats.DroppedNoRoute++
		return false
	}
	if !l.up {
		n.stats.DroppedLinkDown++
		return false
	}

	size := m.WireSize()
	n.stats.Bytes += uint64(size)
	n.traffic.Plane(m.Kind(), size)

	// Serialization delay occupies the sender side of the link.
	start := n.sched.Now()
	if l.params.Bandwidth > 0 {
		if l.busyUntil > start {
			start = l.busyUntil
		}
		ser := sim.Time(int64(size) * int64(sim.Second) / l.params.Bandwidth)
		l.busyUntil = start + ser
		start = l.busyUntil
	}

	if n.rng.Bool(l.params.Loss) {
		n.stats.DroppedLoss++
		return true // entered the link, then died
	}

	delay := l.params.Latency
	if l.params.Jitter > 0 {
		delay += n.rng.Duration(0, l.params.Jitter)
	}
	arrival := start + delay
	if n.FIFO && arrival < l.lastArrival {
		arrival = l.lastArrival
	}
	l.lastArrival = arrival

	var d *delivery
	if k := len(n.free); k > 0 {
		d = n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
	} else {
		d = &delivery{}
	}
	d.net, d.dst, d.from, d.to, d.m = n, dst, from, to, m
	n.sched.AtCall(arrival, deliver, d)
	return true
}

// SendBurst transmits a run of messages from→to as one link burst: on a
// jitter-free, bandwidth-unlimited link the surviving messages share a
// single scheduled delivery event instead of one event per frame, which
// is the transport layer's batched-delivery fast path. Loss is still
// drawn per message, in send order, so the RNG stream — and therefore
// every downstream stochastic outcome — is identical to len(msgs)
// individual Sends. Links with jitter or a bandwidth model fall back to
// per-message Send (their per-frame delays differ, so frames cannot
// share an arrival). The caller keeps ownership of msgs; SendBurst
// copies what it needs.
func (n *Network) SendBurst(from, to seq.NodeID, msgs []msg.Message) {
	if len(msgs) == 0 {
		return
	}
	if len(msgs) == 1 {
		n.Send(from, to, msgs[0])
		return
	}
	l, ok := n.links[[2]seq.NodeID{from, to}]
	if !ok || !l.up || l.params.Jitter > 0 || l.params.Bandwidth > 0 {
		for _, m := range msgs {
			n.Send(from, to, m)
		}
		return
	}
	src, ok := n.nodes[from]
	if !ok || src.crashed {
		for _, m := range msgs {
			n.Send(from, to, m) // per-message drop accounting, same as Send
		}
		return
	}
	dst, ok := n.nodes[to]
	if !ok {
		for _, m := range msgs {
			n.Send(from, to, m)
		}
		return
	}

	var run []msg.Message
	if k := len(n.runFree); k > 0 {
		run = n.runFree[k-1]
		n.runFree[k-1] = nil
		n.runFree = n.runFree[:k-1]
	}
	for _, m := range msgs {
		n.stats.Sent++
		k := m.Kind()
		n.traffic.Kind(k)
		size := m.WireSize()
		n.stats.Bytes += uint64(size)
		n.traffic.Plane(k, size)
		if n.rng.Bool(l.params.Loss) {
			n.stats.DroppedLoss++
			continue
		}
		run = append(run, m)
	}
	if len(run) == 0 {
		n.runFree = append(n.runFree, run)
		return
	}

	arrival := n.sched.Now() + l.params.Latency
	if n.FIFO && arrival < l.lastArrival {
		arrival = l.lastArrival
	}
	l.lastArrival = arrival

	var d *delivery
	if k := len(n.free); k > 0 {
		d = n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
	} else {
		d = &delivery{}
	}
	d.net, d.dst, d.from, d.to, d.run = n, dst, from, to, run
	n.sched.AtCall(arrival, deliver, d)
}

// Broadcast sends m from one node to each of the given destinations.
func (n *Network) Broadcast(from seq.NodeID, to []seq.NodeID, m msg.Message) {
	for _, t := range to {
		n.Send(from, t, m)
	}
}

// NodeIDs returns all registered node IDs (unsorted).
func (n *Network) NodeIDs() []seq.NodeID {
	out := make([]seq.NodeID, 0, len(n.nodes))
	for id := range n.nodes {
		out = append(out, id)
	}
	return out
}

func (s Stats) String() string {
	return fmt.Sprintf("net{sent=%d delivered=%d lost=%d linkdown=%d nodedown=%d noroute=%d bytes=%d}",
		s.Sent, s.Delivered, s.DroppedLoss, s.DroppedLinkDown, s.DroppedNodeDown, s.DroppedNoRoute, s.Bytes)
}
