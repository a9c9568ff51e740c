package main

import (
	"fmt"
	"math"
	"time"
)

// Per-layer metrics: each reads only what the daemon already exports
// (exit reports, /metrics, span dumps) or what the benchmark measured
// around its own calls.

// traffic sums one repetition's transport and control-plane counters
// over every member.
type traffic struct {
	delivered, txDatagrams, txBytes, txMsgs float64
	rxDatagrams, gaps, reorders, drops      float64
	ctrlBytes, dataBytes, maxGapMS          float64
}

func trafficOf(o *repOut) traffic {
	var t traffic
	for _, r := range o.reports {
		t.delivered += float64(r.Delivered)
		for _, p := range r.Transport.Peers {
			t.txDatagrams += float64(p.SentDatagrams)
			t.txBytes += float64(p.SentBytes)
			t.txMsgs += float64(p.SentMsgs)
			t.rxDatagrams += float64(p.RecvDatagrams)
			t.gaps += float64(p.GapsSeen)
			t.reorders += float64(p.OutOfOrder)
			t.drops += float64(p.InjectedDrops)
		}
		for _, g := range r.Groups {
			t.ctrlBytes += float64(g.Control.ControlBytes)
			t.dataBytes += float64(g.Control.DataBytes)
			t.maxGapMS = math.Max(t.maxGapMS, g.MaxGapMS)
		}
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cleanLayers adds the metrics read off the clean repetition: exit
// reports and the runtime's allocation counters.
func cleanLayers(m map[string]metric, o *repOut) {
	t := trafficOf(o)
	m["wire.datagrams_per_delivery"] = metric{ratio(t.txDatagrams, t.delivered), "count"}
	m["wire.bytes_per_delivery"] = metric{ratio(t.txBytes, t.delivered), "B"}
	m["wire.msgs_per_datagram"] = metric{ratio(t.txMsgs, t.txDatagrams), "count"}
	m["wire.ctrl_byte_share"] = metric{ratio(t.ctrlBytes, t.ctrlBytes+t.dataBytes), "ratio"}
	m["wire.gaps_per_1k"] = metric{1000 * ratio(t.gaps, t.rxDatagrams), "count"}
	m["wire.reorders_per_1k"] = metric{1000 * ratio(t.reorders, t.rxDatagrams), "count"}
	m["wire.injected_drops"] = metric{t.drops, "count"}
	m["core.max_gap_ms"] = metric{t.maxGapMS, "ms"}
	m["gc.allocs_per_delivery"] = metric{ratio(float64(o.mallocs), t.delivered), "count"}
	m["gc.alloc_bytes_per_delivery"] = metric{ratio(float64(o.allocBytes), t.delivered), "B"}
	m["gc.cycles_per_10k"] = metric{1e4 * ratio(float64(o.gcCycles), t.delivered), "count"}
	m["gc.pause_ms"] = metric{float64(o.gcPauseNS) / 1e6, "ms"}
}

// scrapedLayers adds the metrics read off the instrumented
// repetition's final /metrics scrapes.
func scrapedLayers(m map[string]metric, o *repOut) {
	var delivered, obSum, obCount, hops, regens, lost float64
	var appSum, appN, syncSum, syncN, overwritten float64
	nacks := map[string]float64{}
	var span time.Duration
	for i, f := range o.final {
		delivered += sumFamily(f, "ringnet_delivered_total")
		s, c := histSumCount(f, "ringnet_outbox_flush_bytes")
		obSum, obCount = obSum+s, obCount+c
		hops += sumFamily(f, "ringnet_token_hops_total")
		regens += sumFamily(f, "ringnet_token_regens_total")
		lost += sumFamily(f, "ringnet_really_lost_total")
		for _, tier := range []string{"ranged", "broadcast", "served"} {
			nacks[tier] += sumWhere(f, "ringnet_nacks_total", `tier="`+tier+`"`)
		}
		s, c = histSumCount(f, "ringnet_store_append_seconds")
		appSum, appN = appSum+s, appN+c
		s, c = histSumCount(f, "ringnet_store_sync_seconds")
		syncSum, syncN = syncSum+s, syncN+c
		overwritten += sumFamily(f, "ringnet_trace_spans_overwritten_total")
		if o.finalAt[i] > span {
			span = o.finalAt[i]
		}
	}
	m["outbox.bytes_per_flush"] = metric{ratio(obSum, obCount), "B"}
	m["core.token_hops_per_s"] = metric{ratio(hops, span.Seconds()), "1/s"}
	m["core.token_regens"] = metric{regens, "count"}
	for tier, n := range nacks {
		m["core.nacks_per_1k."+tier] = metric{1000 * ratio(n, delivered), "count"}
	}
	m["core.really_lost"] = metric{lost, "count"}
	// Store time as a share of the members' wall time: a latency mean
	// has no value where the workload keeps no store.
	busy := float64(members) * span.Seconds()
	m["store.syncs"] = metric{syncN, "count"}
	m["store.append_busy_share"] = metric{ratio(appSum, busy), "ratio"}
	m["store.sync_busy_share"] = metric{ratio(syncSum, busy), "ratio"}
	if appN > 0 {
		fmt.Printf("store: %.0f appends, mean %.2f us; %.0f syncs, mean %.3f ms\n",
			appN, 1e6*appSum/appN, syncN, 1e3*ratio(syncSum, syncN))
	}
	if overwritten > 0 {
		fmt.Printf("WARNING: %.0f trace spans fell off the span rings; stage figures cover the rest\n", overwritten)
	}
}

// spanLayers adds the metrics read directly off the span dumps.
func spanLayers(m map[string]metric, st spanStats, o *repOut) {
	m["trace.gen_late.p50_ms"] = metric{quantile(st.genLate, 0.5), "ms"}
	m["trace.gen_late.p99_ms"] = metric{quantile(st.genLate, 0.99), "ms"}
	m["trace.retransmits_per_1k"] = metric{1000 * ratio(float64(st.retransmits), float64(st.published)), "count"}
	m["trace.nack_tx_per_1k"] = metric{1000 * ratio(float64(st.nackTX), float64(o.expected)), "count"}
	fmt.Printf("spans: %d read, %d sampled publishes, %d retransmits, %d repair Nacks sent",
		st.spans, st.published, st.retransmits, st.nackTX)
	if len(st.fsyncMS) > 0 {
		fmt.Printf(", %d fsyncs (p50 %.3f ms, p99 %.3f ms)", len(st.fsyncMS), quantile(st.fsyncMS, 0.5), quantile(st.fsyncMS, 0.99))
	}
	fmt.Println()
}

// shapeOf sizes the layer calls like the workload's clean repetition:
// its payload, its mean messages per datagram, and the deliveries one
// member makes in a 25 ms flush window.
func shapeOf(w workload, clean *repOut, dir string) callShape {
	t := trafficOf(clean)
	perFrame := int(math.Round(ratio(t.txMsgs, t.txDatagrams)))
	perFrame = max(1, min(perFrame, 255))
	return callShape{
		payload:       w.payload,
		msgsPerFrame:  perFrame,
		appendsPerSyn: max(1, int(w.rateHz*members*0.025)),
		dir:           dir,
	}
}
