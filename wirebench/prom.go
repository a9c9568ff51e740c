package main

import "strings"

// Helpers over a parsed /metrics scrape, keyed as
// telemetry.ParseExposition keys it: `name` or `name{k="v",...}`.

// sumFamily adds every series of one sample name across its label sets.
func sumFamily(m map[string]float64, name string) float64 {
	return sumWhere(m, name, "")
}

// sumWhere adds the series of one sample name whose label set contains
// the literal pair (e.g. `tier="ranged"`); an empty pair matches all.
func sumWhere(m map[string]float64, name, pair string) float64 {
	var s float64
	for k, v := range m {
		rest, ok := strings.CutPrefix(k, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		if pair != "" && !strings.Contains(rest, pair) {
			continue
		}
		s += v
	}
	return s
}

// histSumCount returns a histogram family's _sum and _count, added
// across label sets (members, groups).
func histSumCount(m map[string]float64, family string) (sum, count float64) {
	return sumFamily(m, family+"_sum"), sumFamily(m, family+"_count")
}
