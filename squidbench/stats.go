package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// minTail is the number of samples that must lie beyond a percentile
// before it is reported: a p95 over 19 samples is the maximum, not a
// tail.
const minTail = 10

// quantile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs, or
// NaN for no samples. xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tail returns the nearest-rank p-quantile of xs and whether it may be
// reported: at least minTail samples must rank above it.
func tail(xs []float64, p float64) (float64, bool) {
	rank := int(math.Ceil(p * float64(len(xs))))
	if len(xs)-rank < minTail {
		return 0, false
	}
	return quantile(xs, p), true
}

// sameRows reports whether two outputs hold the same values with the
// same multiplicities, in any order.
func sameRows(x, y []string) bool {
	if len(x) != len(y) {
		return false
	}
	a := append([]string(nil), x...)
	b := append([]string(nil), y...)
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameValues reports whether an executed plan's projected rows and a
// discovered output hold the same distinct values. Discovery.Output
// lists one value per entity row, while the plan selects DISTINCT
// values, so entities sharing a name count once on the plan's side.
func sameValues(executed, discovered []string) bool {
	return sameRows(dedupSorted(executed), dedupSorted(discovered))
}

func dedupSorted(xs []string) []string {
	s := append([]string(nil), xs...)
	sort.Strings(s)
	return dedup(s)
}

// missingExample returns the first example absent from output, and
// whether there is one. An abduced query's filters are drawn from
// contexts all examples satisfy, so its output must contain them.
func missingExample(examples, output []string) (string, bool) {
	have := make(map[string]bool, len(output))
	for _, v := range output {
		have[v] = true
	}
	for _, e := range examples {
		if !have[e] {
			return e, true
		}
	}
	return "", false
}

// firstDiff describes where two renderings first differ, for failure
// messages; "" when they are equal.
func firstDiff(a, b string) string {
	if a == b {
		return ""
	}
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("%d vs %d lines", len(la), len(lb))
}
