package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// protocolConfig is the core tuning for a real-socket deployment:
// unbounded per-hop retries (the acceptance criterion is exact total
// order, not best-effort under give-up), a tight token-compaction cap so
// the circulating token always fits one datagram with room to spare, and
// a deep retained window plus ranged Nacks so a member that fell behind
// a reconfiguration (ring repair re-routed its WQ feed, or it just
// joined) catches up from its predecessor's MQ in a few round trips.
func protocolConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Hop.MaxRetries = 0
	cfg.Wireless.MaxRetries = 0
	// Unbounded retries need backoff: a peer seconds behind on a loaded
	// federated daemon is only buried deeper by fixed-20ms duplicates.
	cfg.Hop.BackoffCap = 500 * sim.Millisecond
	cfg.Wireless.BackoffCap = 500 * sim.Millisecond
	cfg.CompactAbove = 256
	cfg.CompactKeep = 1024
	cfg.RetainExtra = 4096
	cfg.NackWindow = 64
	cfg.NackBroadcastAfter = 3
	cfg.NackGiveUpRounds = 12
	// Idle rings slow their token to one hop per 50 ms: a federated
	// daemon hosts up to hundreds of groups, most quiet at any moment,
	// and constant-rate circulation would burn the whole CPU budget on
	// idle rotations. Worst-case re-wake cost is one stretched rotation
	// (ring size × 50 ms); the 500 ms token watchdog still sees the
	// token several times per window.
	cfg.TokenIdleBackoff = 50 * sim.Millisecond
	return cfg
}

// ringGroup is one hosted ring group: its own engine, scheduler, driver
// goroutine, link onto the shared outbox, membership plane, workload,
// and convergence barrier — the single-group daemon of earlier schema
// versions, now N-per-process. Everything below the transport is
// group-private; the federation (daemon.go) owns what is shared.
type ringGroup struct {
	nd      *Node
	gc      GroupConfig
	gid     uint32
	self    seq.NodeID
	members []seq.NodeID
	port    *Port

	sched *sim.Scheduler
	e     *core.Engine
	drv   *Driver
	link  *Link
	ms    *Membership
	oh    *metrics.OrderHash
	peers []seq.NodeID
	tel   *groupTelemetry

	// Delivery accounting. Driver goroutine only.
	delivered      uint64
	lameDeliveries uint64
	firstG, lastG  seq.GlobalSeq
	lastDeliverAt  sim.Time
	maxGap         sim.Time
	crossLat       metrics.Sample
	trace          *bufio.Writer
	traceFile      *os.File

	// Durable delivery plane (nil without a data_dir). Driver goroutine
	// only, except the final Close at federation teardown.
	dlog           *store.FileLog
	dlq            *store.DLQ
	syncEach       bool // flush_ms < 0: fsync after every append
	storeErr       error
	resumedAt      seq.GlobalSeq
	discLo, discHi seq.GlobalSeq

	// Done-barrier state. Driver goroutine only.
	doneFrom  map[seq.NodeID]bool
	lastReply map[seq.NodeID]sim.Time
	localDone bool

	converged chan struct{}
	drained   chan struct{}
	left      chan struct{}

	expected  uint64
	wallStart time.Time
}

// newRingGroup assembles one group against the daemon's shared transport
// and outbox: topology, engine, link, membership plane, and
// the group's receive hooks on the transport. The driver is built but
// not started — the federation starts every group after the transport
// reader is up.
func newRingGroup(nd *Node, gc GroupConfig, wallStart time.Time) (*ringGroup, error) {
	cfg := nd.cfg
	g := &ringGroup{
		nd:        nd,
		gc:        gc,
		gid:       gc.ID,
		self:      nd.self,
		port:      NewPort(nd.tr, gc.ID),
		oh:        metrics.NewOrderHash(),
		doneFrom:  make(map[seq.NodeID]bool),
		lastReply: make(map[seq.NodeID]sim.Time),
		converged: make(chan struct{}),
		drained:   make(chan struct{}),
		left:      make(chan struct{}),
		wallStart: wallStart,
		tel:       nd.tel.group(gc.ID),
	}

	// Identical hierarchy in every process: one top ring of all members.
	// A joiner starts ringless; its first RingUpdate splices it in.
	g.members = []seq.NodeID{g.self}
	if !gc.Join {
		for _, p := range cfg.Peers {
			g.members = append(g.members, seq.NodeID(p.Node))
		}
	}
	sortNodeIDs(g.members)
	h := topology.New()
	var ringID topology.RingID
	for _, id := range g.members {
		if _, err := h.AddNode(id, topology.TierBR); err != nil {
			return nil, err
		}
	}
	if !gc.Join {
		top, err := h.NewRing(topology.TierBR, g.members...)
		if err != nil {
			return nil, err
		}
		ringID = top.ID
	}

	g.sched = sim.NewScheduler()
	g.drv = NewDriver(g.sched)
	g.link = NewLink(g.drv, nd.ob, g.self, g.gid)
	g.e = core.NewLocalEngine(seq.GroupID(gc.ID), protocolConfig(), g.link, h)
	g.e.Tel = g.tel.coreTel(nd.tel.reg)

	if gc.TracePath != "" {
		f, err := os.Create(gc.TracePath)
		if err != nil {
			return nil, err
		}
		g.traceFile = f
		g.trace = bufio.NewWriter(f)
	}

	// Durable delivery plane: recover the ordered log (torn tails are
	// truncated on open), then seed the order fingerprint — and the
	// trace — from the recovered prefix. After a crash-restart the
	// member's final hash and trace must cover the full stream it ever
	// delivered, not just this incarnation, or cross-member convergence
	// checks would reject a correct resume.
	if gc.DataDir != "" {
		if err := os.MkdirAll(gc.DataDir, 0o755); err != nil {
			g.closeTrace()
			return nil, err
		}
		dl, err := store.OpenFileLog(gc.DataDir, store.FileLogOptions{})
		if err != nil {
			g.closeTrace()
			return nil, err
		}
		g.dlog = dl
		dl.SetTelemetry(g.tel.storeTel)
		dq, err := store.OpenDLQ(gc.DataDir)
		if err != nil {
			dl.Close()
			g.closeTrace()
			return nil, fmt.Errorf("wire: group %d dead-letter queue: %w", gc.ID, err)
		}
		g.dlq = dq
		dq.SetDepthGauge(g.tel.dlqDepth)
		g.syncEach = cfg.FlushMS < 0
		if err := dl.Replay(func(r store.Record) error {
			g.oh.Note(r.Global, r.Source, r.Local)
			if g.trace != nil {
				fmt.Fprintf(g.trace, "%d %d %d\n", r.Global, uint32(r.Source), r.Local)
			}
			return nil
		}); err != nil {
			g.closeStore()
			g.closeTrace()
			return nil, fmt.Errorf("wire: group %d log replay: %w", gc.ID, err)
		}
	}

	// Delivery stream: hash the total order, feed the delivery log
	// (online order/duplicate checking + latency for our own messages),
	// measure cross-process latency and inter-delivery gaps, and dump
	// the trace when asked.
	g.e.OnDeliver = func(at seq.NodeID, d *msg.Data) {
		g.oh.Note(d.GlobalSeq, d.SourceNode, d.LocalSeq)
		g.e.Log.Deliver(uint32(at), d.GlobalSeq, d.SourceNode, d.LocalSeq, g.sched.Now())
		if g.dlog != nil {
			err := g.dlog.Append(store.Record{
				Global: d.GlobalSeq, Source: d.SourceNode, Local: d.LocalSeq, Payload: d.Payload,
			})
			if err == nil && g.syncEach {
				if tr := g.tel.tracer; tr.Active() {
					t0 := time.Now()
					err = g.dlog.Sync()
					tr.Annotate(telemetry.StageFsync, g.gid, uint64(d.GlobalSeq), time.Since(t0).Nanoseconds(), "sync-each")
				} else {
					err = g.dlog.Sync()
				}
			}
			if err != nil && g.storeErr == nil {
				g.storeErr = err
				fmt.Fprintf(os.Stderr, "wire: group %d durable log: %v\n", g.gid, err)
			}
		}
		g.delivered++
		g.tel.delivered.Inc() // mirrors g.delivered exactly: one per trace line
		if g.ms != nil && g.ms.Lame() {
			g.lameDeliveries++ // must stay 0: the lame ring is read-only
		}
		if g.firstG == 0 {
			g.firstG = d.GlobalSeq
		}
		g.lastG = d.GlobalSeq
		now := g.sched.Now()
		if g.lastDeliverAt > 0 && now-g.lastDeliverAt > g.maxGap {
			g.maxGap = now - g.lastDeliverAt
		}
		g.lastDeliverAt = now
		if g.trace != nil {
			fmt.Fprintf(g.trace, "%d %d %d\n", d.GlobalSeq, uint32(d.SourceNode), d.LocalSeq)
		}
		if d.SourceNode != g.self && len(d.Payload) >= 8 {
			if ts := int64(binary.LittleEndian.Uint64(d.Payload)); ts > 0 {
				// Only offset-corrected samples count: without an estimate
				// the "latency" would silently include the full clock skew.
				if off, ok := g.port.OffsetOf(d.SourceNode); ok {
					lat := time.Duration(time.Now().UnixNano()-ts) + off
					if lat > 0 && lat < time.Minute {
						g.crossLat.Add(lat.Seconds())
						g.tel.crossLat.Observe(lat.Seconds())
					}
				}
			}
		}
	}

	// Really-lost bodies — the engine gave up repair and inserted a
	// loss marker to keep the stream moving — are tombstoned in the
	// member's dead-letter queue for offline inspection and replay.
	// Peers' verdicts applied via Skip land here too, so every member
	// records the same holes it actually has.
	if g.dlq != nil {
		g.e.OnLost = func(at seq.NodeID, gl seq.GlobalSeq, src seq.NodeID, local seq.LocalSeq, reason string) {
			if at != g.self {
				return
			}
			g.tel.emit("dlq-tombstone", uint64(gl), reason)
			err := g.dlq.Add(store.DLQEntry{
				Global: gl, Source: src, Local: local, Reason: reason,
				WallNS: time.Now().UnixNano(),
			})
			if err != nil && g.storeErr == nil {
				g.storeErr = err
				fmt.Fprintf(os.Stderr, "wire: group %d dead-letter queue: %v\n", g.gid, err)
			}
		}
	}

	g.peers = make([]seq.NodeID, 0, len(g.members)-1)
	for _, id := range g.members {
		if id != g.self {
			g.peers = append(g.peers, id)
			g.link.ExposePeer(id)
		}
	}
	for _, p := range cfg.Peers {
		if p.Addr == "" {
			g.closeStore()
			g.closeTrace()
			return nil, fmt.Errorf("wire: peer %d has no address", p.Node)
		}
		if err := g.port.AddPeer(seq.NodeID(p.Node), p.Addr); err != nil {
			g.closeStore()
			g.closeTrace()
			return nil, err
		}
	}
	if err := g.e.StartLocal(g.self); err != nil {
		g.closeStore()
		g.closeTrace()
		return nil, err
	}

	// Live membership plane.
	if cfg.Live {
		tun := MemberTunables{
			Heartbeat:  sim.Time(cfg.HeartbeatMS) * sim.Millisecond,
			Suspect:    sim.Time(cfg.SuspectMS) * sim.Millisecond,
			Lame:       sim.Time(cfg.LameMS) * sim.Millisecond,
			TokenWatch: sim.Time(cfg.TokenWatchMS) * sim.Millisecond,
		}
		var initial map[seq.NodeID]string
		var seeds []PeerAddr
		if gc.Join {
			seeds = cfg.Peers
		} else {
			initial = make(map[seq.NodeID]string, len(g.members))
			initial[g.self] = nd.LocalAddr()
			for _, p := range cfg.Peers {
				initial[seq.NodeID(p.Node)] = p.Addr
			}
		}
		g.ms = NewMembership(g.e, g.port, g.link, g.self, nd.LocalAddr(), tun, initial, ringID, seeds)
		g.ms.SetTelemetry(g.tel.memberTel())
		g.ms.OrderHash = g.oh.Sum64 // RingSummary/MergeReq carry the live order fingerprint
		if g.dlog != nil {
			// Ask the coordinator to resume at the recovered durable
			// front instead of joining fresh at the quorum baseline.
			g.ms.ResumeFront = g.dlog.RecoveredFront()
		}
		g.ms.OnDiscarded = func(lo, hi seq.GlobalSeq) {
			g.discLo, g.discHi = lo, hi
			g.tel.emit("discard", uint64(hi), fmt.Sprintf("globals [%d, %d]", lo, hi))
			fmt.Fprintf(os.Stderr, "wire: node %d group %d discarded globals [%d, %d]: durable front below the resume horizon, rejoining fresh at the baseline\n",
				cfg.Node, g.gid, lo, hi)
		}
		if os.Getenv("RINGNET_MEMBER_TRACE") != "" {
			g.ms.Trace = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "member[%d/g%d@%v]: %s\n", cfg.Node, g.gid,
					time.Since(wallStart).Round(time.Millisecond), fmt.Sprintf(format, args...))
			}
		}
	}

	g.expected = gc.Expect
	if g.expected == 0 && !cfg.Live {
		g.expected = uint64(gc.Count) * uint64(len(g.members))
	}

	// Receive surface. The sink feeds the engine's local NE; a joiner
	// gates non-membership traffic until its first splice: ordered
	// traffic or a token arriving early (a peer applied the grant
	// before our copy of it landed) would fill the virgin MQ and defeat
	// the baseline jump, stranding the delivery front at the
	// unreachable stream prefix forever. Dropped frames are simply
	// retransmitted by their senders until we join and ack.
	sink := g.e.NE(g.self).Recv
	if gc.Join {
		inner := sink
		gate := g.ms
		sink = func(from seq.NodeID, m msg.Message) {
			// Gate only until the FIRST splice: an evicted leaver must
			// keep receiving acks/Nacks to drain and serve stragglers.
			if gate != nil && !gate.Spliced() {
				switch m.(type) {
				case *msg.Heartbeat, *msg.RingUpdate, *msg.JoinReq, *msg.LeaveReq:
				default:
					return
				}
			}
			inner(from, m)
		}
	}
	hooks := GroupHooks{Handler: g.link.Attach(sink)}
	hooks.OnControl = func(from seq.NodeID, flags uint8) {
		if flags&FlagDone == 0 {
			return
		}
		g.drv.Call(func() {
			// A converged member answers Done with Done (rate-limited):
			// beacons ride the same lossy socket they gossip about, so
			// a straggler that missed our periodic beacons re-learns we
			// are done the moment its own beacons start flowing, even
			// if we are already lingering on the way out.
			if g.localDone && g.sched.Now()-g.lastReply[from] >= 50*sim.Millisecond {
				g.lastReply[from] = g.sched.Now()
				g.port.SendControl(from, FlagDone)
			}
			g.doneFrom[from] = true
		})
	}
	if g.ms != nil {
		ms := g.ms
		hooks.OnUnknown = func(from seq.NodeID, msgs []msg.Message) {
			g.drv.Call(func() { ms.HandleUnknown(from, msgs) })
		}
	}
	if err := nd.tr.Register(g.gid, hooks); err != nil {
		g.closeStore()
		g.closeTrace()
		return nil, err
	}
	return g, nil
}

func sortNodeIDs(ids []seq.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// start launches the group's driver goroutine and installs the workload
// and the convergence/termination state machine on its scheduler, so all
// protocol state stays on the driver goroutine.
//
// Termination barrier: local convergence is NOT exit-safe — gap repair
// (Nack) is pull-based, so this member may be the only reachable holder
// of a body a straggler is still missing, and the holder of the only
// copy of the circulating token. Once locally converged each member
// gossips a FlagDone beacon (scoped to this group's sections) to every
// peer and leaves the ring only after hearing Done from all of them,
// i.e. when its retransmission state is provably unneeded. With live
// membership the barrier audience is the current live peer set, so a
// crashed member cannot wedge everyone else's exit.
func (g *ringGroup) start() {
	cfg := g.nd.cfg
	gc := g.gc
	g.drv.Start()
	g.drv.CallWait(func() {
		var src *workload.Source
		startWorkload := func() {
			// Post-Normalize, Count <= 0 means this member sources
			// nothing for the group (inheritance already resolved) —
			// don't build a source at all: CBR's count == 0 contract is
			// "unbounded until Stop", which would turn a silent member
			// into an infinite sender with no convergence criterion.
			if gc.Count <= 0 {
				return
			}
			// Stamp each payload with the send wall clock (fresh buffer
			// per message: payload slices are shared by reference all the
			// way to retransmission buffers).
			src = workload.NewSource(g.sched, func(corr seq.NodeID, payload []byte) error {
				if len(payload) >= 8 {
					buf := make([]byte, len(payload))
					copy(buf, payload)
					binary.LittleEndian.PutUint64(buf, uint64(time.Now().UnixNano()))
					payload = buf
				}
				_, err := g.e.Submit(corr, payload)
				return err
			}, g.self, gc.Payload)
			gap := sim.Time(float64(sim.Second) / gc.RateHz)
			if gap < 1 {
				gap = 1
			}
			src.CBR(g.sched.Now()+sim.Time(gc.StartMS)*sim.Millisecond, gap, gc.Count)
		}
		if g.ms != nil {
			g.ms.OnJoined = func(baseline, resumed seq.GlobalSeq) {
				if resumed > 0 {
					g.resumedAt = resumed
				}
				startWorkload()
			}
			g.ms.OnEvicted = func() {
				if src != nil {
					src.Stop()
				}
			}
			g.ms.Start()
		}
		if !gc.Join {
			startWorkload()
		}

		// Batched durability: dirty appends ride one fsync per flush
		// window instead of one per delivery. Sync is a no-op while the
		// log is clean, so idle groups cost nothing.
		if g.dlog != nil && !g.syncEach {
			flush := sim.Time(cfg.FlushMS) * sim.Millisecond
			g.sched.Every(flush, func() {
				var err error
				tr := g.tel.tracer
				var t0 time.Time
				if tr.Active() {
					t0 = time.Now()
				}
				if err = g.dlog.Sync(); err == nil && g.dlq != nil {
					err = g.dlq.Sync()
				}
				if tr.Active() {
					tr.Annotate(telemetry.StageFsync, g.gid, 0, time.Since(t0).Nanoseconds(), "flush-window")
				}
				if err != nil && g.storeErr == nil {
					g.storeErr = err
					fmt.Fprintf(os.Stderr, "wire: group %d durable log sync: %v\n", g.gid, err)
				}
			})
		}

		livePeers := func() []seq.NodeID {
			if g.ms != nil {
				return g.ms.LivePeers()
			}
			return g.peers
		}
		beacon := func() {
			// Gossip only toward peers we have not heard Done from: a
			// peer that missed our beacons but has itself converged will
			// keep beaconing us, and the rate-limited Done reply above
			// closes that asymmetry. Once the barrier holds everywhere
			// the beacons stop entirely — a federated daemon hosting
			// hundreds of converged groups must not keep flooding its
			// shared socket with Done chatter while stragglers finish.
			for _, p := range livePeers() {
				if !g.doneFrom[p] {
					g.port.SendControl(p, FlagDone) // best-effort; repeated
				}
			}
		}
		sent := func() bool {
			if gc.Count <= 0 {
				return true // nothing to source, nothing to drain
			}
			return src != nil && src.Sent+src.Errors >= uint64(gc.Count)
		}
		locallyConverged := func() bool {
			if cfg.Live {
				// Dynamic membership: the exact delivery count is
				// unknowable, so converge on quiescence — everything
				// sent, no undelivered slot in the MQ (an open gap means
				// repair is still running), senders drained, and the
				// delivery stream idle.
				if !g.ms.Joined() || g.ms.Lame() || !sent() || !g.e.Quiesced() {
					return false
				}
				// A token-dead ring is never converged, however idle:
				// a pending regeneration may order messages this node
				// has not yet seen, so leaving now could strand a
				// divergent delivery prefix.
				if !g.e.OrdersWell(g.self) {
					return false
				}
				q := g.e.QueueOf(g.self)
				if q == nil || q.Front() != q.Rear() {
					return false
				}
				idleFor := g.sched.Now() - g.lastDeliverAt
				if g.lastDeliverAt == 0 {
					idleFor = g.sched.Now()
				}
				return idleFor >= sim.Time(cfg.IdleMS)*sim.Millisecond
			}
			return g.delivered >= g.expected && sent()
		}
		barrier := func() bool {
			for _, p := range livePeers() {
				if !g.doneFrom[p] {
					return false
				}
			}
			return true
		}
		var watchTick *sim.Ticker
		if g.ms == nil {
			// Static membership has no failure detector, but the token
			// can still die under extreme overload (an assign conflict
			// destroys the only copy after its sender was already
			// acked), and with nobody watching, the ring stays dead
			// forever. Re-emit the paper's Token-Loss signal after a
			// second of token silence; the core's TokenLossThreshold
			// filters the signal whenever circulation is demonstrably
			// healthy, and Multiple-Token filtering resolves the rare
			// concurrent regeneration. A second dwarfs the worst idle-
			// backoff rotation (ring size × 50 ms), so a merely slow
			// ring never trips it.
			var lastSignal sim.Time
			watchTick = g.sched.Every(250*sim.Millisecond, func() {
				ne := g.e.NE(g.self)
				if ne == nil {
					return
				}
				last, seen := ne.TokenActivity()
				now := g.sched.Now()
				if seen && now-last > sim.Second && now-lastSignal > sim.Second {
					lastSignal = now
					g.e.OnTokenLoss(g.self)
				}
			})
		}
		leftClosed := false
		evictedAt := sim.Time(0)
		phase := 0 // 0 = converging, 1 = draining
		var barrierAt sim.Time
		quiesce := sim.Time(cfg.QuiesceMS) * sim.Millisecond
		var tick, beaconTick *sim.Ticker
		lastDelivered := uint64(0)
		// The convergence check backs off to 100ms while nothing is
		// happening: a daemon hosting hundreds of groups cannot afford a
		// 10ms poll per group while most of them sit quietly waiting for
		// their workload to start or for a sibling's barrier. Delivery
		// progress or a phase transition snaps it back to 10ms, so the
		// convergence timestamp a report records stays sharp.
		tick = g.sched.EveryBackoff(10*sim.Millisecond, 100*sim.Millisecond, func() bool {
			active := g.delivered != lastDelivered
			lastDelivered = g.delivered
			if g.ms != nil && g.ms.Evicted() {
				// Graceful leave (or eviction): serve retransmissions
				// until our couriers drain — bounded by QuiesceMS, so a
				// transfer stuck on an unreachable peer cannot pin the
				// process to its deadline.
				if evictedAt == 0 {
					evictedAt = g.sched.Now()
					active = true
				}
				drainedOut := g.e.Quiesced() && g.e.NE(g.self).TokenIdle()
				if !leftClosed && (drainedOut || g.sched.Now()-evictedAt >= quiesce) {
					leftClosed = true
					tick.Stop()
					close(g.left)
				}
				return active
			}
			switch phase {
			case 0:
				if locallyConverged() {
					phase = 1
					g.localDone = true
					close(g.converged)
					beacon()
					beaconTick = g.sched.Every(100*sim.Millisecond, beacon)
					active = true
				}
			case 1:
				if !barrier() {
					barrierAt = 0
					return active
				}
				if barrierAt == 0 {
					barrierAt = g.sched.Now()
					active = true
				}
				// Post-barrier drain (trailing retransmissions, the token
				// settling between rotations), bounded by QuiesceMS.
				if (g.e.Quiesced() && g.e.NE(g.self).TokenIdle()) ||
					g.sched.Now()-barrierAt >= quiesce {
					tick.Stop() // no further ticks fire after Stop
					beaconTick.Stop()
					if g.ms == nil {
						// The static group is done everywhere: retire the
						// ring so a daemon hosting hundreds of finished
						// groups stops paying for their idle circulation.
						// (Live groups leave the token to the membership
						// plane, which owns its liveness until Stop.)
						watchTick.Stop()
						g.e.ParkToken(g.self)
					}
					close(g.drained)
				}
			}
			return active
		})
	})
}

// run blocks until this group converges (or leaves, is killed, or hits
// the shared deadline), then collects the group's report. The driver is
// left running — a finished group must keep serving shared-outbox flush
// timers and straggler repairs until every sibling group is done; the
// federation stops all drivers together.
func (g *ringGroup) run(deadline <-chan struct{}) (GroupReport, error) {
	cfg := g.nd.cfg
	ok := false
	didLeave := false
	linger := func() {
		lt := time.After(time.Duration(cfg.LingerMS) * time.Millisecond)
		select {
		case <-lt:
		case <-deadline:
		}
	}
	select {
	case <-g.converged:
		ok = true
		// Wait for the group-wide barrier, then a bounded drain so
		// trailing retransmissions and the token settle, then a linger
		// floor during which beacons (and Done replies) keep flowing —
		// so a peer that lost our earlier beacons to the same faults we
		// are gossiping about still hears one before the daemon exits.
		select {
		case <-g.drained:
			linger()
		case <-g.left:
			didLeave = true
			linger()
		case <-g.nd.killed:
			return GroupReport{Group: g.gid}, fmt.Errorf("wire: node %d killed", cfg.Node)
		case <-deadline:
		}
	case <-g.left:
		didLeave = true
		linger()
	case <-g.nd.killed:
		return GroupReport{Group: g.gid}, fmt.Errorf("wire: node %d killed", cfg.Node)
	case <-deadline:
	}

	var rep GroupReport
	var debugState string
	g.drv.CallWait(func() {
		debugState = g.e.DebugState(g.self)
		g.finish()
		rep = g.snapshot()
	})
	if rep.OrderErr != "" {
		return rep, fmt.Errorf("wire: node %d group %d total-order violation: %s", cfg.Node, g.gid, rep.OrderErr)
	}
	if didLeave {
		return rep, nil
	}
	if !ok {
		fmt.Fprintln(os.Stderr, debugState)
		return rep, fmt.Errorf("wire: node %d group %d did not converge: delivered %d/%d within %dms",
			cfg.Node, g.gid, rep.Delivered, g.expected, cfg.DeadlineMS)
	}
	return rep, nil
}

// chanClosed reports whether ch has been closed, without blocking.
func chanClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// snapshot builds the group's v2 report from live state — the same
// struct serves the daemon's exit report, the admin /status endpoint,
// and the periodic -report-interval line. Driver goroutine only;
// side-effect-free, so it is safe to call mid-run.
func (g *ringGroup) snapshot() GroupReport {
	lat := &g.e.Log.Latency
	memberCount := len(g.members)
	var epoch uint64
	if g.ms != nil {
		memberCount = len(g.ms.order)
		epoch = g.ms.Epoch()
	}
	var leader uint32
	if top := g.e.H.TopRing(); top != nil {
		leader = uint32(top.Leader())
	}
	rep := GroupReport{
		Group:   g.gid,
		Members: memberCount,
		Leader:  leader,
		// Converged/Left mirror the barrier channels, so a mid-run
		// snapshot reports the live phase and the exit snapshot reports
		// exactly what run() observed.
		Converged: chanClosed(g.converged),
		Left:      chanClosed(g.left),
		// Delivered is read back from the registry instrument, not the
		// driver-local counter: both increment together in OnDeliver (one
		// per trace line), and deriving the report from the registry
		// guarantees /metrics and the exit report can never disagree — a
		// test pins the equality.
		Delivered:     g.tel.delivered.Value(),
		Expected:      g.expected,
		Epoch:         epoch,
		OrderHash:     g.oh.Hex(),
		FirstGlobal:   uint64(g.firstG),
		LastGlobal:    uint64(g.lastG),
		ThroughputPS:  g.e.Log.Throughput(),
		LatencyMeanMS: lat.Mean() * 1000,
		LatencyP99MS:  lat.Quantile(0.99) * 1000,
		MaxGapMS:      float64(g.maxGap) / float64(sim.Millisecond),
		Control:       g.e.ControlReport(),
	}
	if g.crossLat.N() > 0 {
		rep.CrossLatMeanMS = g.crossLat.Mean() * 1000
		rep.CrossLatP99MS = g.crossLat.Quantile(0.99) * 1000
		rep.CrossLatN = g.crossLat.N()
	}
	if err := g.e.Log.Err(); err != nil {
		rep.OrderErr = err.Error()
	}
	if g.ms != nil {
		rep.Lame = g.ms.Lame()
		rep.LameEntries = g.tel.lameEntries.Value() // registry-derived; == ms.LameEntries
		rep.LameMS = int64(g.ms.LameTime() / sim.Millisecond)
		rep.LameDeliveries = g.lameDeliveries
		rep.Merges = g.tel.merges.Value() // registry-derived; == ms.Merges
		rep.HealUS = int64(g.ms.HealLatency() / sim.Microsecond)
	}
	rep.ResumedAt = uint64(g.resumedAt)
	if g.dlq != nil {
		rep.DLQEntries = g.dlq.Len()
	}
	if g.discLo > 0 && g.discLo <= g.discHi {
		rep.DiscardedRange = &SeqRange{Lo: uint64(g.discLo), Hi: uint64(g.discHi)}
	}
	if g.storeErr != nil {
		rep.StoreErr = g.storeErr.Error()
	}
	return rep
}

// finish ends the group's live phase before the exit snapshot: stop the
// membership ticker, fsync the durable plane (so the report never claims
// more than the disk holds), and flush the trace while serialized with
// OnDeliver. Driver goroutine only.
func (g *ringGroup) finish() {
	if g.ms != nil {
		g.ms.Stop()
	}
	if g.dlog != nil {
		if err := g.dlog.Sync(); err != nil && g.storeErr == nil {
			g.storeErr = err
		}
	}
	if g.dlq != nil {
		if err := g.dlq.Sync(); err != nil && g.storeErr == nil {
			g.storeErr = err
		}
	}
	if g.trace != nil {
		g.trace.Flush()
	}
}

// ready reports whether this group is serving its part of /readyz:
// already converged, or spliced in and ordering well — and in either
// case not parked lame and not sitting on a store error. Driver
// goroutine only.
func (g *ringGroup) ready() bool {
	if g.storeErr != nil {
		return false
	}
	if g.ms != nil {
		if !g.ms.Joined() || g.ms.Lame() {
			return false
		}
	}
	return chanClosed(g.converged) || g.e.OrdersWell(g.self)
}

// closeTrace flushes and closes the group's trace file. Idempotent; call
// only after the group's driver has stopped (or before it starts).
func (g *ringGroup) closeTrace() {
	if g.trace != nil {
		g.trace.Flush()
		g.trace = nil
	}
	if g.traceFile != nil {
		g.traceFile.Close()
		g.traceFile = nil
	}
}

// closeStore syncs and closes the group's durable log and dead-letter
// queue. Idempotent; call only after the group's driver has stopped (or
// before it starts).
func (g *ringGroup) closeStore() {
	if g.dlog != nil {
		g.dlog.Close()
		g.dlog = nil
	}
	if g.dlq != nil {
		g.dlq.Close()
		g.dlq = nil
	}
}
