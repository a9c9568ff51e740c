// Package transport implements the paper's local-scope-based
// retransmission scheme (§4.2.3): every network entity reliably transmits
// within its immediate-neighbor scope only — to its next node, its
// children, or its attached MHs — using per-hop cumulative
// acknowledgements, timeout retransmission, and bounded retries. After
// the retry budget is exhausted a message is "really lost" and, per
// §4.1, is considered delivered (best-effort reliability in the sense of
// Bimodal Multicast [5]).
package transport

import (
	"fmt"
	"slices"

	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
)

// Link is the network one protocol instance sends through: the simulated
// network (netsim.Network) in the simulator, the shared socket outbox on
// the wire. Sends are best-effort, like UDP: reliability is this
// package's job, on top.
type Link interface {
	// Send transmits m from→to and reports whether it entered the
	// network (false when there is no route; the message is dropped
	// silently either way).
	Send(from, to seq.NodeID, m msg.Message) bool
	// SendBurst transmits a run of messages from→to in order. The
	// caller keeps ownership of msgs.
	SendBurst(from, to seq.NodeID, msgs []msg.Message)
	// Scheduler is the event scheduler the link's sends run on.
	Scheduler() *sim.Scheduler
	// Traffic is the link's per-kind and data/control byte accounting.
	Traffic() *metrics.Traffic
}

// Config tunes one reliable hop.
type Config struct {
	// RTO is the retransmission timeout.
	RTO sim.Time
	// MaxRetries bounds retransmissions per message; 0 means unbounded
	// (strong reliability within the hop).
	MaxRetries int
	// BackoffCap, when non-zero, doubles the retransmission delay on
	// every retry of the same message, up to this cap; a fresh message
	// (or a retargeted hop) starts back at RTO. A receiver that has
	// genuinely fallen behind — seconds of scheduler backlog on an
	// overloaded federated daemon — is only buried deeper by fixed-rate
	// duplicates, and the duplicates it processes are pure overhead
	// since the first copy is already queued. 0 keeps the paper's
	// fixed-RTO scheme (the simulator default).
	BackoffCap sim.Time
}

// DefaultConfig suits wired backbone hops.
var DefaultConfig = Config{RTO: 20 * sim.Millisecond, MaxRetries: 10}

// WirelessConfig suits lossy AP→MH hops: a tighter timer and a larger
// budget.
var WirelessConfig = Config{RTO: 30 * sim.Millisecond, MaxRetries: 15}

type pending struct {
	s       *Sender
	m       msg.Message
	seqno   uint64
	retries int
	timer   sim.Timer
}

// pendingTimeout is the static retransmission handler: scheduled with
// AfterCall so arming a timer allocates no closure.
func pendingTimeout(v any) {
	p := v.(*pending)
	s := p.s
	if s.closed || p.seqno <= s.acked {
		return
	}
	if q, live := s.out[p.seqno]; !live || q != p {
		return
	}
	if s.cfg.MaxRetries > 0 && p.retries >= s.cfg.MaxRetries {
		seqno := p.seqno
		s.release(p)
		if s.OnGiveUp != nil {
			s.OnGiveUp(seqno)
		}
		return
	}
	p.retries++
	s.Retransmissions++
	if s.OnRetransmit != nil {
		s.OnRetransmit(p.m)
	}
	s.transmit(p)
}

// Sender reliably pushes a sequence-numbered stream of messages across
// one directed hop. Seqnos must be assigned by the caller and are
// cumulative-acked: Ack(n) releases every message with seqno ≤ n.
//
// The sender never reorders: it transmits immediately on Send and
// retransmits on timeout. OnGiveUp fires when a message exhausts its
// retries — the caller then applies the really-lost rule.
type Sender struct {
	net   Link
	cfg   Config
	from  seq.NodeID
	to    seq.NodeID
	out   map[uint64]*pending
	free  []*pending // recycled pending slots (their timers are stopped)
	acked uint64
	// OnGiveUp is invoked with the seqno abandoned after MaxRetries.
	OnGiveUp func(seqno uint64)
	// OnRetransmit, when set, observes every timeout-triggered resend
	// with the message being resent (trace-plane annotation hook; nil —
	// the simulator default — costs one branch per retransmission).
	OnRetransmit func(m msg.Message)

	// Retransmissions counts timeout-triggered resends (overhead
	// metric).
	Retransmissions uint64
	closed          bool

	// scratch buffers for SendRun (per-call burst assembly).
	burstMsgs []msg.Message
	burstPend []*pending
}

// NewSender builds a sender for one directed hop.
func NewSender(net Link, from, to seq.NodeID, cfg Config) *Sender {
	if cfg.RTO <= 0 {
		cfg.RTO = DefaultConfig.RTO
	}
	return &Sender{net: net, cfg: cfg, from: from, to: to, out: make(map[uint64]*pending)}
}

// To returns the destination of this hop.
func (s *Sender) To() seq.NodeID { return s.to }

// Retarget atomically redirects the hop to a new destination (ring
// repair: the next node changed). Unacked messages are retransmitted to
// the new destination immediately, in ascending seqno order, so the new
// successor sees the stream in order and the simulator stays
// deterministic.
func (s *Sender) Retarget(to seq.NodeID) {
	if s.to == to {
		return
	}
	s.to = to
	sns := make([]uint64, 0, len(s.out))
	for sn := range s.out {
		sns = append(sns, sn)
	}
	slices.Sort(sns)
	for _, sn := range sns {
		p := s.out[sn]
		if s.cfg.BackoffCap > 0 {
			// A fresh destination deserves a fresh cadence: the old
			// peer's unresponsiveness says nothing about the new one.
			p.retries = 0
		}
		s.transmit(p)
	}
}

// Unsent reports whether a Send/SendRun of seqno would actually
// transmit: the seqno is above the cumulative ack and not already
// outstanding. Callers use it to decide whether a frame can carry
// piggybacked state that must not be silently dropped.
func (s *Sender) Unsent(seqno uint64) bool {
	if s.closed || seqno <= s.acked {
		return false
	}
	_, dup := s.out[seqno]
	return !dup
}

// track acquires a pending slot for (seqno, m) and inserts it into the
// outstanding window; the caller transmits and arms the timer.
func (s *Sender) track(seqno uint64, m msg.Message) *pending {
	var p *pending
	if n := len(s.free); n > 0 {
		p = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		p = &pending{s: s}
	}
	p.m = m
	p.seqno = seqno
	p.retries = 0
	s.out[seqno] = p
	return p
}

// Send transmits m with the given stream seqno. Duplicate seqnos and
// seqnos at or below the cumulative ack are ignored.
func (s *Sender) Send(seqno uint64, m msg.Message) {
	if !s.Unsent(seqno) {
		return
	}
	p := s.track(seqno, m)
	s.net.Send(s.from, s.to, m)
	s.arm(p)
}

// SendRun transmits msgs[i] with seqno start+i as one burst: every
// message gets its own pending slot and retransmission timer exactly as
// with Send, but the initial transmission goes through the network's
// burst path, which schedules a single delivery event for the whole run
// on jitter-free links instead of one event per frame. Duplicate seqnos
// and seqnos at or below the cumulative ack are skipped, as in Send.
func (s *Sender) SendRun(start uint64, msgs []msg.Message) {
	if s.closed || len(msgs) == 0 {
		return
	}
	if len(msgs) == 1 {
		s.Send(start, msgs[0])
		return
	}
	burst := s.burstMsgs[:0]
	pend := s.burstPend[:0]
	for i, m := range msgs {
		seqno := start + uint64(i)
		if !s.Unsent(seqno) {
			continue
		}
		burst = append(burst, m)
		pend = append(pend, s.track(seqno, m))
	}
	s.net.SendBurst(s.from, s.to, burst)
	for i, p := range pend {
		s.arm(p)
		pend[i] = nil
	}
	for i := range burst {
		burst[i] = nil // pendings hold the references; the scratch must not
	}
	s.burstMsgs = burst[:0]
	s.burstPend = pend[:0]
}

// release stops p's timer, drops it from the outstanding window, and
// recycles the slot.
func (s *Sender) release(p *pending) {
	p.timer.Stop()
	delete(s.out, p.seqno)
	p.m = nil
	s.free = append(s.free, p)
}

func (s *Sender) transmit(p *pending) {
	s.net.Send(s.from, s.to, p.m)
	p.timer.Stop()
	s.arm(p)
}

func (s *Sender) arm(p *pending) {
	p.timer = s.net.Scheduler().AfterCall(retryDelay(s.cfg, p.retries), pendingTimeout, p)
}

// retryDelay is the rearm delay after the retries-th transmission:
// fixed RTO, or exponentially backed off to cfg.BackoffCap.
func retryDelay(cfg Config, retries int) sim.Time {
	d := cfg.RTO
	if cfg.BackoffCap <= 0 {
		return d
	}
	for i := 0; i < retries && d < cfg.BackoffCap; i++ {
		d *= 2
	}
	if d > cfg.BackoffCap {
		d = cfg.BackoffCap
	}
	return d
}

// Ack releases every outstanding message with seqno ≤ cum.
func (s *Sender) Ack(cum uint64) {
	if cum <= s.acked {
		return
	}
	s.acked = cum
	for n, p := range s.out {
		if n <= cum {
			s.release(p)
		}
	}
}

// Acked returns the cumulative acknowledgement received.
func (s *Sender) Acked() uint64 { return s.acked }

// Outstanding returns the number of unacked messages.
func (s *Sender) Outstanding() int { return len(s.out) }

// Close stops all timers; subsequent Sends are dropped.
func (s *Sender) Close() {
	s.closed = true
	for _, p := range s.out {
		s.release(p)
	}
}

// Courier reliably delivers one message at a time (the ordering token's
// "some retransmission scheme", §4.2.1). Deliver sends m and retransmits
// until Confirm is called or retries are exhausted, at which point OnFail
// fires (the basis of the Token-Loss case when the next node is dead).
type Courier struct {
	net  Link
	cfg  Config
	from seq.NodeID

	seqno   uint64 // identifies the current in-flight delivery
	to      seq.NodeID
	m       msg.Message
	retries int
	timer   sim.Timer
	// OnFail is invoked when delivery of the current message is
	// abandoned.
	OnFail func(to seq.NodeID, m msg.Message)

	Retransmissions uint64
}

// NewCourier builds a single-message reliable sender.
func NewCourier(net Link, from seq.NodeID, cfg Config) *Courier {
	if cfg.RTO <= 0 {
		cfg.RTO = DefaultConfig.RTO
	}
	return &Courier{net: net, cfg: cfg, from: from}
}

// Busy reports whether a delivery is in flight.
func (c *Courier) Busy() bool { return c.m != nil }

// To returns the destination of the current (or last) delivery — used by
// membership reconfiguration to find couriers stuck on a removed member.
func (c *Courier) To() seq.NodeID { return c.to }

// Deliver starts reliable delivery of m to to, cancelling any previous
// in-flight delivery.
func (c *Courier) Deliver(to seq.NodeID, m msg.Message) {
	c.cancel()
	c.seqno++
	c.to = to
	c.m = m
	c.retries = 0
	c.net.Send(c.from, to, m)
	c.armCourier(c.seqno)
}

func (c *Courier) armCourier(sn uint64) {
	c.timer = c.net.Scheduler().After(retryDelay(c.cfg, c.retries), func() {
		if c.m == nil || c.seqno != sn {
			return
		}
		if c.cfg.MaxRetries > 0 && c.retries >= c.cfg.MaxRetries {
			m, to := c.m, c.to
			c.m = nil
			if c.OnFail != nil {
				c.OnFail(to, m)
			}
			return
		}
		c.retries++
		c.Retransmissions++
		c.net.Send(c.from, c.to, c.m)
		c.armCourier(sn)
	})
}

// Confirm acknowledges the in-flight delivery, stopping retransmission.
func (c *Courier) Confirm() { c.cancel() }

func (c *Courier) cancel() {
	c.timer.Stop()
	c.m = nil
}

func (c *Courier) String() string {
	return fmt.Sprintf("courier{from=%v to=%v busy=%v retries=%d}", c.from, c.to, c.Busy(), c.retries)
}
