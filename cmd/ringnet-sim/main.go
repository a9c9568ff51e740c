// ringnet-sim runs one configurable RingNet scenario and prints the
// delivery, latency, buffer, and overhead metrics.
//
// Example:
//
//	ringnet-sim -brs 4 -agrings 2 -agsize 3 -aps 2 -mhs 4 \
//	            -sources 2 -rate 500 -count 1000 \
//	            -loss 0.01 -dwell 2s -reserve -membership -seed 7
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	ringnet "repro"
	"repro/internal/mobility"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run executes one scenario configured by args and writes its report to
// w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ringnet-sim", flag.ContinueOnError)
	var (
		brs     = fs.Int("brs", 3, "border routers in the top ring")
		agrings = fs.Int("agrings", 2, "access gateway rings")
		agsize  = fs.Int("agsize", 2, "gateways per AG ring")
		aps     = fs.Int("aps", 1, "access proxies per gateway")
		mhs     = fs.Int("mhs", 2, "mobile hosts per proxy")
		figure1 = fs.Bool("figure1", false, "use the paper's Figure-1 topology")

		sources = fs.Int("sources", 1, "multicast sources (≤ BRs)")
		rate    = fs.Float64("rate", 200, "messages per second per source (λ)")
		count   = fs.Int("count", 500, "messages per source")
		payload = fs.Int("payload", 64, "payload bytes")

		loss    = fs.Float64("loss", 0, "wired link loss probability")
		wless   = fs.Float64("wireless-loss", 0.01, "wireless link loss probability")
		dwell   = fs.Duration("dwell", 0, "mean MH dwell time (0 disables mobility)")
		reserve = fs.Bool("reserve", false, "multicast path reservation on handoff")
		members = fs.Bool("membership", false, "run the heartbeat membership protocol")
		seed    = fs.Uint64("seed", 1, "deterministic seed")
		quiet   = fs.Bool("q", false, "metrics only (skip hierarchy dump)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	wired := ringnet.LinkParams{Latency: 2 * ringnet.Millisecond, Loss: *loss}
	wireless := ringnet.LinkParams{Latency: 8 * ringnet.Millisecond, Jitter: 4 * ringnet.Millisecond, Loss: *wless}
	sim, err := ringnet.NewSim(ringnet.Config{
		Topology:   ringnet.Spec{BRs: *brs, AGRings: *agrings, AGSize: *agsize, APsPerAG: *aps, MHsPerAP: *mhs},
		Figure1:    *figure1,
		Seed:       *seed,
		Wired:      &wired,
		Wireless:   &wireless,
		Membership: *members,
	})
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprint(w, sim.Engine.H.Format())
	}

	n := *sources
	if n > len(sim.Sources()) {
		n = len(sim.Sources())
	}
	g := sim.NewTrafficGroup(sim.Sources()[:n], *payload)
	gap := ringnet.Time(float64(ringnet.Second) / *rate)
	g.CBR(50*ringnet.Millisecond, gap, ringnet.Millisecond, *count)

	var mover *mobility.Mover
	if *dwell > 0 {
		mover = sim.NewMover(mobility.Config{
			MeanDwell: ringnet.Time(dwell.Microseconds()),
			Reserve:   *reserve,
		})
		mover.Start(sim.Hosts())
	}

	if _, err := sim.RunQuiet(250*ringnet.Millisecond, 600*ringnet.Second); err != nil {
		return err
	}
	if mover != nil {
		mover.Stop()
	}
	if err := sim.CheckOrder(); err != nil {
		return fmt.Errorf("TOTAL ORDER VIOLATED: %w", err)
	}

	lg := sim.Engine.Log
	buf := sim.Engine.Buffers()
	stats := sim.Net.Stats()
	fmt.Fprintf(w, "\nvirtual time      %v\n", sim.Sched.Now())
	fmt.Fprintf(w, "sent              %d msgs from %d sources\n", lg.SentCount(), n)
	fmt.Fprintf(w, "receivers         %d MHs, min delivered %d, skipped gaps %d\n",
		lg.Receivers(), lg.MinDelivered(), lg.Gaps.Value())
	fmt.Fprintf(w, "throughput        %.1f msgs/s per receiver\n", lg.Throughput())
	fmt.Fprintf(w, "latency           %s\n", lg.Latency.Summary())
	fmt.Fprintf(w, "worst stall       %v\n", lg.MaxGap())
	fmt.Fprintf(w, "buffers           peak WQ %d, peak MQ %d slots (overflows %d)\n",
		buf.PeakWQ, buf.PeakMQ, buf.Overflows)
	fmt.Fprintf(w, "retransmissions   %d\n", buf.Retransmits)
	fmt.Fprintf(w, "network           %v\n", stats)
	rep := sim.ControlReport()
	fmt.Fprintf(w, "bandwidth         data %d msgs / %d B; control %d msgs / %d B (%.1f%% of bytes)\n",
		rep.DataMsgs, rep.DataBytes, rep.ControlMsgs, rep.ControlBytes, 100*rep.ControlByteShare())
	fmt.Fprintf(w, "ack plane         %.2f standalone msgs per delivered payload (ack %d, progress %d, nack %d)\n",
		rep.AckPerDelivered(), rep.Acks, rep.Progress, rep.Nacks)
	if mover != nil {
		fmt.Fprintf(w, "handoffs          %d\n", mover.Handoffs)
	}
	if sim.Members != nil {
		fmt.Fprintf(w, "membership        repairs %d, token-loss signals %d\n",
			sim.Members.Repairs, sim.Members.TokenLossSignals)
	}
	fmt.Fprintln(w, "total order       verified")
	return nil
}
