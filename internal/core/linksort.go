package core

import (
	"math"
	"slices"

	"repro/internal/virtual"
)

// linkKV is the packed (key, ID) pair sortLinksByBW sorts instead of the
// multi-word Link structs.
type linkKV struct {
	key uint64
	id  int32
}

// sortLinksByBW returns the links of v named by ids — every link when
// ids is nil — ordered by bandwidth descending with ID-ascending
// tie-breaks: the strict total order the Hosting and Networking stages
// process links in (§4.1, §4.3). It sorts compact (packed key, ID) pairs
// and gathers once instead of comparing and swapping the multi-word Link
// structs directly; at 2000 guests the per-Map link sorts were ~40% of
// the whole mapping in profiles. The complemented, sign-adjusted IEEE-754
// bit pattern is order-isomorphic to descending float order, so the pair
// key realises exactly the comparator's total order and the resulting
// permutation is the one a stable sort of the structs gives. The result
// lives in ms.links until the next call.
func sortLinksByBW(v *virtual.Env, ids []int, ms *mapScratch) []virtual.Link {
	n := len(ids)
	if ids == nil {
		n = v.NumLinks()
	}
	ms.kvs = sized(ms.kvs, n)
	kvs := ms.kvs
	for i := range kvs {
		id := i
		if ids != nil {
			id = ids[i]
		}
		kvs[i] = linkKV{key: ^floatOrderKey(v.Link(id).BW), id: int32(id)}
	}
	slices.SortFunc(kvs, func(a, b linkKV) int {
		if a.key != b.key {
			if a.key < b.key {
				return -1
			}
			return 1
		}
		return int(a.id) - int(b.id)
	})
	ms.links = sized(ms.links, n)
	for i, p := range kvs {
		ms.links[i] = v.Link(int(p.id))
	}
	return ms.links
}

// LinksByBandwidth returns a copy of v's links in the order the Hosting
// and Networking stages walk them: bandwidth descending, ID ascending.
func LinksByBandwidth(v *virtual.Env) []virtual.Link {
	var ms mapScratch // not pooled: the result is the caller's
	return sortLinksByBW(v, nil, &ms)
}

// floatOrderKey maps a float64 to a uint64 whose unsigned order matches
// the float order, negatives included. Link bandwidths are never NaN.
func floatOrderKey(f float64) uint64 {
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}
