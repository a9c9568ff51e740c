package wire

import (
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
)

// linkRig is one group's link on node 1 over a shared outbox, with node
// 2 receiving on loopback. The scheduler is run by hand (the driver is
// never started): at schedules one protocol event and runs it, plus
// every flush it arms, to completion.
type linkRig struct {
	a, b  *Transport
	ob    *SharedOutbox
	sched *sim.Scheduler
	drv   *Driver
	link  *Link

	mu  sync.Mutex
	got map[uint32][]msg.Message
}

func newLinkRig(t *testing.T, window sim.Time, groups ...uint32) *linkRig {
	t.Helper()
	a, b := pairUp(t, Faults{}, Faults{})
	r := &linkRig{a: a, b: b, ob: NewSharedOutbox(a, window), sched: sim.NewScheduler(), got: map[uint32][]msg.Message{}}
	r.drv = NewDriver(r.sched)
	for _, g := range append([]uint32{1}, groups...) {
		if g != 1 {
			if err := a.AddPeer(g, 2, b.LocalAddr().String()); err != nil {
				t.Fatal(err)
			}
			if err := b.AddPeer(g, 1, a.LocalAddr().String()); err != nil {
				t.Fatal(err)
			}
		}
		g := g
		register(t, b, g, GroupHooks{Handler: func(_ seq.NodeID, ms []msg.Message) {
			r.mu.Lock()
			r.got[g] = append(r.got[g], ms...)
			r.mu.Unlock()
		}})
	}
	b.Start()
	a.Start()
	r.link = NewLink(r.drv, r.ob, 1, 1)
	r.link.ExposePeer(2)
	return r
}

func (r *linkRig) at(t *testing.T, f func()) {
	t.Helper()
	r.sched.After(0, f)
	if _, err := r.sched.RunAll(); err != nil {
		t.Fatal(err)
	}
}

// wait blocks until group g has received n messages and returns them.
func (r *linkRig) wait(t *testing.T, g uint32, n int) []msg.Message {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.mu.Lock()
		got := append([]msg.Message(nil), r.got[g]...)
		r.mu.Unlock()
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("group %d received %d/%d messages", g, len(got), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func dataMsg(g uint32, l seq.LocalSeq) *msg.Data {
	return &msg.Data{Group: seq.GroupID(g), SourceNode: 1, LocalSeq: l, OrderingNode: 1, Payload: []byte("x")}
}

// TestLinkDropsNonMembers: a send to a node outside the peer set —
// never exposed, the local node itself, or retired — is dropped at the
// link, like an unrouted datagram: it never reaches the outbox, so it
// can never surface as a transport send error.
func TestLinkDropsNonMembers(t *testing.T) {
	r := newLinkRig(t, 0)
	hb := &msg.Heartbeat{From: 1}
	r.at(t, func() {
		if r.link.Send(1, 3, hb) {
			t.Error("send to unexposed node 3 reported routed")
		}
		if r.link.Send(1, 1, hb) {
			t.Error("send to the local node reported routed")
		}
		r.link.RetirePeer(2)
		if r.link.Send(1, 2, hb) {
			t.Error("send to retired node 2 reported routed")
		}
	})
	if errs := r.ob.SendErrs(); errs != 0 {
		t.Fatalf("SendErrs = %d after non-member sends, want 0", errs)
	}
	if st := r.a.Stats().Peers[2]; st.SentDatagrams != 0 {
		t.Fatalf("sent %d datagrams, want 0", st.SentDatagrams)
	}
	if rep := r.link.Traffic().Report(); rep.ControlMsgs != 0 || rep.Heartbeats != 0 {
		t.Fatalf("dropped sends were counted: %+v", rep)
	}
	// The outbox alone turns the same unroutable send into an error.
	r.at(t, func() { r.ob.Enqueue(r.sched, 1, 3, hb) })
	if errs := r.ob.SendErrs(); errs != 1 {
		t.Fatalf("outbox SendErrs = %d for an unknown peer, want 1", errs)
	}
}

// TestLinkRetirePeerDropsOnlyItsGroup: retiring a peer discards this
// group's unflushed messages for it, while a sibling group's pending
// traffic for the same peer still leaves.
func TestLinkRetirePeerDropsOnlyItsGroup(t *testing.T) {
	r := newLinkRig(t, sim.Second, 2) // data waits out the window
	sibling := NewLink(r.drv, r.ob, 1, 2)
	sibling.ExposePeer(2)
	r.at(t, func() {
		r.link.Send(1, 2, dataMsg(1, 1))
		sibling.Send(1, 2, dataMsg(2, 1))
		r.link.RetirePeer(2)
	})
	r.wait(t, 2, 1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.got[1]); n != 0 {
		t.Fatalf("retired group delivered %d messages, want 0", n)
	}
	if st := r.a.Stats().Peers[2]; st.SentDatagrams != 1 || st.SentMsgs != 1 {
		t.Fatalf("peer stats %+v, want one datagram carrying the sibling's message", st)
	}
}

// TestLinkEventCoalescesIntoOneDatagram: a token and the acks produced
// in the same protocol event leave in one datagram, in send order.
func TestLinkEventCoalescesIntoOneDatagram(t *testing.T) {
	r := newLinkRig(t, 5*sim.Millisecond)
	ack := &msg.Ack{Group: 1, From: 1, Source: 1, CumLocal: 3, CumGlobal: 3}
	tok := &msg.TokenMsg{From: 1, Token: seq.NewToken(1)}
	r.at(t, func() {
		r.link.Send(1, 2, ack)
		r.link.Send(1, 2, tok)
	})
	got := r.wait(t, 1, 2)
	if got[0].Kind() != msg.KindAck || got[1].Kind() != msg.KindToken {
		t.Fatalf("received kinds %v, %v; want ack then token", got[0].Kind(), got[1].Kind())
	}
	if st := r.a.Stats().Peers[2]; st.SentDatagrams != 1 {
		t.Fatalf("sent %d datagrams, want 1", st.SentDatagrams)
	}
}

// TestLinkTrafficMatchesOutbox: the link's data/control counts are the
// wire sizes of exactly the messages that reached the outbox — the
// meaning of the wire report's control block.
func TestLinkTrafficMatchesOutbox(t *testing.T) {
	r := newLinkRig(t, 0)
	want := sampleMsgs()
	r.at(t, func() {
		r.link.SendBurst(1, 2, want)
		r.link.Send(1, 3, &msg.Heartbeat{From: 1}) // dropped, uncounted
	})
	got := r.wait(t, 1, len(want))
	var dataMsgs, dataBytes, ctrlMsgs, ctrlBytes uint64
	for _, m := range got {
		switch m.Kind() {
		case msg.KindData, msg.KindSourceData:
			dataMsgs++
			dataBytes += uint64(m.WireSize())
		default:
			ctrlMsgs++
			ctrlBytes += uint64(m.WireSize())
		}
	}
	rep := r.link.Traffic().Report()
	if rep.DataMsgs != dataMsgs || rep.DataBytes != dataBytes || rep.ControlMsgs != ctrlMsgs || rep.ControlBytes != ctrlBytes {
		t.Fatalf("link counted data %d/%dB ctrl %d/%dB; outbox carried data %d/%dB ctrl %d/%dB",
			rep.DataMsgs, rep.DataBytes, rep.ControlMsgs, rep.ControlBytes, dataMsgs, dataBytes, ctrlMsgs, ctrlBytes)
	}
	if rep.Acks != 1 || rep.Heartbeats != 0 {
		t.Fatalf("per-kind counts: acks %d heartbeats %d, want 1 and 0", rep.Acks, rep.Heartbeats)
	}
}
