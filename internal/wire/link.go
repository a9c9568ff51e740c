package wire

import (
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
)

// Link is one group's path between its protocol engine and the daemon's
// shared transport. Outbound, it is the transport.Link the engine sends
// through: a send to a live remote member is enqueued — tagged with this
// group's id — into the shared per-peer outbox, inside the sending
// event, where it coalesces with the rest of that event's traffic (a
// token plus its piggybacked acks, a fanout burst) and with sibling
// groups' traffic for the same peer. Inbound, sections for this group
// are serialized onto the driver goroutine and handed to the local
// node (Attach).
//
// The real network supplies latency, jitter, loss, and reordering, so
// the paper's per-hop reliability machinery runs against genuine packet
// behavior.
//
// The peer set is mutable: ExposePeer/RetirePeer track live ring
// membership. A send to anyone outside it is dropped silently, the way
// an unrouted datagram is.
type Link struct {
	drv     *Driver
	ob      *SharedOutbox
	local   seq.NodeID
	group   uint32
	peers   map[seq.NodeID]bool
	traffic metrics.Traffic
}

// NewLink builds the link for one group; expose the initial peers, then
// start the engine's local node, then Attach.
func NewLink(drv *Driver, ob *SharedOutbox, local seq.NodeID, group uint32) *Link {
	return &Link{drv: drv, ob: ob, local: local, group: group, peers: make(map[seq.NodeID]bool)}
}

// ExposePeer adds one remote member (idempotent). Runs on the driver
// goroutine once the driver is started.
func (l *Link) ExposePeer(p seq.NodeID) {
	if p != l.local {
		l.peers[p] = true
	}
}

// RetirePeer removes a remote member and drops this group's unflushed
// messages for it from the shared outbox (the member is gone;
// reliability state pointing at it is the engine's DropPeer business).
// Runs on the driver goroutine.
func (l *Link) RetirePeer(p seq.NodeID) {
	if !l.peers[p] {
		return
	}
	delete(l.peers, p)
	l.ob.Drop(l.group, p)
}

// Send enqueues m for peer to and reports whether to is a live member.
// from is always the local node.
func (l *Link) Send(from, to seq.NodeID, m msg.Message) bool {
	if !l.peers[to] {
		return false
	}
	k := m.Kind()
	l.traffic.Kind(k)
	l.traffic.Plane(k, m.WireSize())
	l.ob.Enqueue(l.drv.sched, l.group, to, m)
	return true
}

// SendBurst enqueues a run of messages for peer to, in order.
func (l *Link) SendBurst(from, to seq.NodeID, msgs []msg.Message) {
	for _, m := range msgs {
		l.Send(from, to, m)
	}
}

// Scheduler returns the group's scheduler.
func (l *Link) Scheduler() *sim.Scheduler { return l.drv.sched }

// Traffic counts the messages that reached the outbox.
func (l *Link) Traffic() *metrics.Traffic { return &l.traffic }

// Attach installs the local protocol handler: inbound sections for this
// group are serialized onto the driver goroutine and handed to sink in
// order. The returned Handler is what the group registers with the
// transport.
func (l *Link) Attach(sink func(from seq.NodeID, m msg.Message)) Handler {
	return func(from seq.NodeID, msgs []msg.Message) {
		l.drv.Call(func() {
			for _, m := range msgs {
				sink(from, m)
			}
		})
	}
}
