package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/topology"
)

// benchShapeSpec mirrors the ringSpec(4) deployment the steady-state
// benchmark drives: a 4-BR top ring with a full tree below it (8 MHs).
func benchShapeSpec() topology.Spec {
	return topology.Spec{BRs: 4, AGRings: 2, AGSize: 2, APsPerAG: 1, MHsPerAP: 2}
}

// newRigLinks is newRig with link-parameter overrides (loss/jitter
// scenarios the default engine links don't cover).
func newRigLinks(t *testing.T, spec topology.Spec, mutate func(*Config), wired, wireless *netsim.LinkParams) *rig {
	t.Helper()
	sched := sim.NewScheduler()
	sched.MaxEvents = 20_000_000
	net := netsim.New(sched, sim.NewRNG(42))
	b, err := topology.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	e := NewEngine(1, cfg, net, b.H)
	if wired != nil {
		e.WiredLink = *wired
	}
	if wireless != nil {
		e.WirelessLink = *wireless
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	return &rig{t: t, sched: sched, net: net, b: b, e: e}
}

// seedAckPlanePerDelivered is the standalone ack-plane volume (Ack +
// Progress + Nack messages per delivered payload) measured on the seed
// implementation (one Ack per ordered hop per message, one per-source
// WQ Ack per arrival, one Progress per MH delivery) for the exact
// workload of TestAckCoalescingReducesControl: 9810 standalone messages
// for 4000 deliveries. The acceptance criterion for the coalescing work
// is a ≥50% reduction against this.
const seedAckPlanePerDelivered = 2.45

func TestAckCoalescingReducesControl(t *testing.T) {
	r := newRig(t, benchShapeSpec(), nil)
	r.pump([]seq.NodeID{r.b.BRs[0]}, 500, 2*sim.Millisecond, 10*sim.Millisecond)
	r.run(5 * sim.Second)
	r.assertClean(500)
	rep := r.e.ControlReport()
	if rep.Delivered != 4000 {
		t.Fatalf("delivered = %d, want 4000", rep.Delivered)
	}
	got := rep.AckPerDelivered()
	if want := seedAckPlanePerDelivered / 2; got > want {
		t.Fatalf("ack-plane messages per delivered payload = %.3f, want ≤ %.3f (half the seed's %.2f): %v",
			got, want, seedAckPlanePerDelivered, rep)
	}
	if rep.ControlBytes == 0 || rep.DataBytes == 0 {
		t.Fatalf("control/data byte split not accounted: %v", rep)
	}
	t.Logf("ack-plane per delivered: %.3f (seed %.2f); %v", got, seedAckPlanePerDelivered, rep)
}

// TestDeliveryTraceGolden pins the application-level delivery traces of
// a loss-free-wired two-source run to the trace produced by the
// pre-coalescing implementation (recorded before the ack/batching
// rework): per host, the exact (global, source, local) delivery
// sequence must be byte-identical. Ack coalescing, piggybacking, and
// burst delivery change control traffic and timing — never what is
// delivered, or in what order.
func TestDeliveryTraceGolden(t *testing.T) {
	const goldenTraceHash = 0x72520453b6790cdd // pre-change measurement

	r := newRig(t, benchShapeSpec(), nil)
	type hostHash struct {
		host seq.HostID
		h    *metrics.OrderHash
	}
	hashes := make([]hostHash, 0, len(r.b.Hosts))
	for _, hostID := range r.b.Hosts {
		hh := hostHash{host: hostID, h: metrics.NewOrderHash()}
		hashes = append(hashes, hh)
		m := r.e.MHOf(hostID)
		m.OnDeliver = func(d *msg.Data) {
			hh.h.Note(d.GlobalSeq, d.SourceNode, d.LocalSeq)
		}
	}
	r.pump([]seq.NodeID{r.b.BRs[0], r.b.BRs[2]}, 250, 2*sim.Millisecond, 10*sim.Millisecond)
	r.run(5 * sim.Second)
	r.assertClean(500)
	combined := fnv.New64a()
	for _, hh := range hashes {
		fmt.Fprintf(combined, "%d=%#x;", hh.host, hh.h.Sum64())
	}
	if got := combined.Sum64(); got != goldenTraceHash {
		t.Fatalf("delivery-order trace hash = %#x, want golden %#x (delivery order changed)", got, goldenTraceHash)
	}
}

// TestGapTriggersImmediateAckFlush drives an AP's ordered receive path
// directly: an in-order arrival must coalesce (no standalone Ack), a
// gap must flush at once (the upstream needs the precise front to
// retransmit only what is missing), and a coalesced ack must flush by
// itself within AckDelay.
func TestGapTriggersImmediateAckFlush(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	ap := r.b.APs[0]
	ne := r.e.NE(ap)
	parent := ne.view.Parent
	src := r.b.BRs[0]
	acks := func() uint64 { return r.net.Traffic().Report().Acks }
	data := func(g seq.GlobalSeq, l seq.LocalSeq) *msg.Data {
		return &msg.Data{Group: 1, SourceNode: src, LocalSeq: l, OrderingNode: src, GlobalSeq: g, Payload: []byte("x")}
	}

	base := acks()
	ne.handleOrderedData(parent, data(1, 1))
	if got := acks() - base; got != 0 {
		t.Fatalf("in-order arrival sent %d standalone Acks, want 0 (coalesced)", got)
	}
	ne.handleOrderedData(parent, data(3, 3))
	if got := acks() - base; got != 1 {
		t.Fatalf("gap arrival sent %d standalone Acks total, want exactly 1 immediate flush", got)
	}
	// Fill the gap: delivery resumes, ack coalesces again and must flush
	// on its own within AckDelay of quiescence.
	ne.handleOrderedData(parent, data(2, 2))
	if got := acks() - base; got != 1 {
		t.Fatalf("gap-filling arrival flushed immediately (%d Acks), want coalesced", got)
	}
	r.run(r.sched.Now() + r.e.Cfg.AckDelay)
	if got := acks() - base; got != 2 {
		t.Fatalf("%d standalone Acks after AckDelay, want 2 (timer flush of the coalesced ack)", got)
	}
	if ne.mq.Front() != 3 {
		t.Fatalf("front = %d, want 3", ne.mq.Front())
	}
}

// TestWQGapTriggersImmediateAckFlush is the top-ring equivalent: an
// out-of-order WQ arrival must flush the per-source cumulative ack
// immediately so Nack/retransmission latency is unchanged.
func TestWQGapTriggersImmediateAckFlush(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	recv := r.e.NE(r.b.BRs[1])
	prev := recv.view.Previous
	src := r.b.BRs[0]
	acks := func() uint64 { return r.net.Traffic().Report().Acks }

	base := acks()
	recv.handleWQData(prev, &msg.Data{Group: 1, SourceNode: src, LocalSeq: 1, Payload: []byte("x")})
	if got := acks() - base; got != 0 {
		t.Fatalf("in-order WQ arrival sent %d standalone Acks, want 0 (coalesced)", got)
	}
	recv.handleWQData(prev, &msg.Data{Group: 1, SourceNode: src, LocalSeq: 3, Payload: []byte("x")})
	if got := acks() - base; got != 1 {
		t.Fatalf("WQ gap arrival sent %d standalone Acks total, want exactly 1 immediate flush", got)
	}
}

// TestAckCoalescingConvergesUnderLoss runs lossy wired and wireless
// links and asserts that delayed acknowledgements still converge: after
// quiescence plus one AckDelay, every AP's working table matches each
// attached MH's delivered mark exactly (the MH Progress path), and
// garbage collection has released every MQ down to its RetainExtra
// allowance — i.e. coalescing changed no GC outcome.
func TestAckCoalescingConvergesUnderLoss(t *testing.T) {
	wired := netsim.LinkParams{Latency: 2 * sim.Millisecond, Loss: 0.02}
	wireless := netsim.LinkParams{Latency: 8 * sim.Millisecond, Jitter: 4 * sim.Millisecond, Loss: 0.05}
	r := newRigLinks(t, smallSpec(), nil, &wired, &wireless)
	r.pump([]seq.NodeID{r.b.BRs[0], r.b.BRs[1]}, 100, 2*sim.Millisecond, 10*sim.Millisecond)

	// Run until the engine quiesces (all reliable hops drained).
	deadline := 60 * sim.Second
	for r.sched.Now() < deadline {
		r.run(r.sched.Now() + 250*sim.Millisecond)
		if r.e.Quiesced() {
			break
		}
	}
	if !r.e.Quiesced() {
		t.Fatal("engine did not quiesce under loss")
	}
	// One more AckDelay: any coalesced ack still registered must flush.
	r.run(r.sched.Now() + r.e.Cfg.AckDelay + r.e.Cfg.Wireless.RTO)
	r.assertClean(200)

	retain := seq.GlobalSeq(r.e.Cfg.RetainExtra)
	for _, ap := range r.b.APs {
		ne := r.e.NE(ap)
		for _, h := range r.e.H.HostsAt(ap) {
			mh := r.e.MHOf(h)
			got, ok := ne.wt.Get(wtHost(h))
			if !ok || got != mh.last {
				t.Fatalf("AP %v WT[%v] = %d (ok=%v), want MH last %d within one AckDelay of quiescence",
					ap, h, got, ok, mh.last)
			}
		}
		if min, ok := ne.wt.Min(); ok && min >= ne.mq.Front() && ne.mq.Front() > retain {
			if want := ne.mq.Front() - retain; ne.mq.ValidFront() != want {
				t.Fatalf("AP %v ValidFront = %d, want %d (front %d − RetainExtra %d)",
					ap, ne.mq.ValidFront(), want, ne.mq.Front(), retain)
			}
		}
	}
	if r.net.Traffic().Report().Acks == 0 {
		t.Fatal("no standalone Acks at all under loss — gap flushes should have produced some")
	}
}

// TestWTKeySpaceHostNodeDisjoint pins the WT key-space audit: HostIDs
// and NodeIDs are both small integers, so a host and a child NE with
// the same numeric identity must still occupy distinct WT rows (host
// keys are offset through the MH identity range).
func TestWTKeySpaceHostNodeDisjoint(t *testing.T) {
	r := newRig(t, smallSpec(), nil)
	ap := r.b.APs[0]
	ne := r.e.NE(ap)

	// A host whose numeric ID equals an existing node's ID (one not
	// already taken by a built host).
	taken := make(map[seq.HostID]bool, len(r.b.Hosts))
	for _, h := range r.b.Hosts {
		taken[h] = true
	}
	var collideNode seq.NodeID
	for _, id := range r.e.H.NodeIDs() {
		if !taken[seq.HostID(uint32(id))] {
			collideNode = id
			break
		}
	}
	if collideNode == seq.None {
		t.Fatal("no free colliding identity available")
	}
	colliding := seq.HostID(uint32(collideNode))
	if wtHost(colliding) == wtNode(collideNode) {
		t.Fatalf("wtHost(%d) == wtNode(%d) == %d: key spaces overlap", colliding, collideNode, wtHost(colliding))
	}
	if err := r.e.AddMH(colliding, ap); err != nil {
		t.Fatal(err)
	}

	// Plant a node-keyed row with the same numeric ID and let the MH
	// report progress: the rows must move independently.
	nodeKey := wtNode(seq.NodeID(uint32(colliding)))
	ne.wt.Reset(nodeKey, 7)
	ne.handleProgress(MHNodeID(colliding), &msg.Progress{Group: 1, Host: colliding, Max: 9})
	if v, ok := ne.wt.Get(nodeKey); !ok || v != 7 {
		t.Fatalf("node-keyed WT row = %d (ok=%v) after host progress, want untouched 7", v, ok)
	}
	if v, ok := ne.wt.Get(wtHost(colliding)); !ok || v != 9 {
		t.Fatalf("host-keyed WT row = %d (ok=%v), want 9", v, ok)
	}

	// And the engine refuses NE identities inside the MH range outright.
	if err := r.e.spawnNE(seq.NodeID(MHIDOffset)); err == nil {
		t.Fatal("spawnNE accepted an identity inside the MH range")
	}
}

// TestMultiSourceWQAckBatching checks that a top-ring node forwarding
// several source streams acknowledges them in batched multi-source Acks
// (or TokenAck piggybacks) rather than one Ack per source per arrival.
func TestMultiSourceWQAckBatching(t *testing.T) {
	r := newRig(t, benchShapeSpec(), nil)
	srcs := []seq.NodeID{r.b.BRs[0], r.b.BRs[1], r.b.BRs[2], r.b.BRs[3]}
	r.pump(srcs, 250, 2*sim.Millisecond, 10*sim.Millisecond)
	r.run(5 * sim.Second)
	r.assertClean(1000)
	rep := r.e.ControlReport()
	// Seed behavior: ≥1 WQ Ack per WQ Data hop (3 hops per message on a
	// 4-ring) plus per-hop ordered acks and per-delivery Progress. With
	// batching + piggybacking + coalescing the ack plane must stay under
	// half of the seed's per-source volume.
	if got := rep.AckPerDelivered(); got > seedAckPlanePerDelivered/2 {
		t.Fatalf("multi-source ack-plane per delivered = %.3f, want ≤ %.3f: %v",
			got, seedAckPlanePerDelivered/2, rep)
	}
	t.Logf("multi-source: %v", rep)
}

// TestTwoNodeTopRing exercises the degenerate ring where a node's WQ
// successor is also its upstream (next == previous), the only steady
// topology where acknowledgements can piggyback on forwarded frames.
func TestTwoNodeTopRing(t *testing.T) {
	r := newRig(t, topology.Spec{BRs: 2, AGRings: 1, AGSize: 2, APsPerAG: 1, MHsPerAP: 2}, nil)
	r.pump([]seq.NodeID{r.b.BRs[0], r.b.BRs[1]}, 100, 2*sim.Millisecond, 10*sim.Millisecond)
	r.run(5 * sim.Second)
	r.assertClean(200)
}
