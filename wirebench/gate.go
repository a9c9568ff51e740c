package main

import (
	"fmt"

	"repro/internal/wire"
)

// gate is the correctness check every repetition passes before any of
// its figures count: one total order on every member, every expected
// delivery made, and no silent loss or side channel. It returns one
// line per failed check; an empty result means the repetition passed.
//
// final holds the members' last /metrics scrapes when the repetition
// was instrumented (nil otherwise); on loss-free workloads their
// ringnet_really_lost_total must be 0. Without scrapes the same fact is
// read off the report: a really-lost slot leaves the delivered global
// range wider than the number of deliveries.
func gate(reports []wire.Report, runErrs []error, lossFree bool, final []map[string]float64) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if len(reports) == 0 {
		return []string{"no member reports"}
	}
	var hash0 string
	for i, r := range reports {
		id := i + 1
		if i < len(runErrs) && runErrs[i] != nil {
			fail("member %d: run: %v", id, runErrs[i])
		}
		if len(r.Groups) != 1 {
			fail("member %d: reports %d groups, want 1", id, len(r.Groups))
			continue
		}
		g := r.Groups[0]
		if i == 0 {
			hash0 = g.OrderHash
		} else if g.OrderHash != hash0 {
			fail("member %d: order_hash %s differs from member 1's %s", id, g.OrderHash, hash0)
		}
		if g.OrderErr != "" {
			fail("member %d: order_err %q", id, g.OrderErr)
		}
		if !r.Converged || !g.Converged {
			fail("member %d: not converged", id)
		}
		if g.Delivered != g.Expected {
			fail("member %d: delivered %d, expected %d", id, g.Delivered, g.Expected)
		}
		if g.LameDeliveries != 0 {
			fail("member %d: %d lame deliveries", id, g.LameDeliveries)
		}
		if r.SendErrs != 0 {
			fail("member %d: %d send errors", id, r.SendErrs)
		}
		if g.DLQEntries != 0 {
			fail("member %d: %d dead-letter entries", id, g.DLQEntries)
		}
		if g.StoreErr != "" {
			fail("member %d: store error %q", id, g.StoreErr)
		}
		var scraped map[string]float64
		if final != nil {
			if i < len(final) {
				scraped = final[i]
			}
			if scraped == nil {
				fail("member %d: no /metrics scrape taken at its expected count", id)
			}
		}
		if !lossFree {
			continue
		}
		if g.Delivered > 0 && g.LastGlobal-g.FirstGlobal+1 != g.Delivered {
			fail("member %d: delivered %d bodies over globals %d..%d: slots really lost", id, g.Delivered, g.FirstGlobal, g.LastGlobal)
		}
		if lost := sumFamily(scraped, "ringnet_really_lost_total"); lost != 0 {
			fail("member %d: ringnet_really_lost_total %v", id, lost)
		}
	}
	return bad
}
