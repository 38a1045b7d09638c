package main

import (
	"encoding/json"
	"math/rand/v2"
	"sort"

	"clustersmt/internal/campaign"
	"clustersmt/internal/workload"
)

// schemes are the resource-assignment schemes the workloads draw from.
// Each drives different hooks: icount only the fetch selector, flush+ the
// L2-miss flush path, cssp an issue-queue limit, cdprf the dynamic
// register-file caps, pc the forced-cluster steering.
var schemes = []string{"icount", "flush+", "cssp", "cdprf", "pc"}

// schemePairs lists the ten unordered pairs of distinct schemes. Handing
// one pair to each of ten categories runs every scheme exactly four times.
func schemePairs() [][2]string {
	var out [][2]string
	for i := range schemes {
		for j := i + 1; j < len(schemes); j++ {
			out = append(out, [2]string{schemes[i], schemes[j]})
		}
	}
	return out
}

// triple is one category's drawn ILP, MEM and MIX pool workloads.
type triple struct {
	category string
	pairs    [3]workload.Workload // ILP, MEM, MIX
}

// names returns the triple's pool workload names.
func (t triple) names() []string {
	return []string{t.pairs[0].Name, t.pairs[1].Name, t.pairs[2].Name}
}

// drawTriples picks, for every Table 2 category that has ILP, MEM and MIX
// pairs (all but "mixes"), k distinct workloads of each type, makes k
// triples of them, and returns all triples in a seeded order. Covering
// every category in every round keeps the cost of a round close from seed
// to seed: workloads of one category and type are alike, while categories
// differ widely.
func drawTriples(rng *rand.Rand, k int) []triple {
	byCat := map[string]map[workload.Type][]workload.Workload{}
	for _, w := range workload.Pool() {
		if byCat[w.Category] == nil {
			byCat[w.Category] = map[workload.Type][]workload.Workload{}
		}
		byCat[w.Category][w.Type] = append(byCat[w.Category][w.Type], w)
	}
	types := []workload.Type{workload.ILP, workload.MEM, workload.MIX}
	var out []triple
	for _, cat := range workload.Categories {
		pool := byCat[cat]
		if len(pool[workload.ILP]) < k || len(pool[workload.MEM]) < k || len(pool[workload.MIX]) < k {
			continue
		}
		picks := make([][]int, len(types))
		for i, typ := range types {
			picks[i] = rng.Perm(len(pool[typ]))
		}
		for j := 0; j < k; j++ {
			t := triple{category: cat}
			for i, typ := range types {
				t.pairs[i] = pool[typ][picks[i][j]]
			}
			out = append(out, t)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// newRNG returns the generator every draw of a run comes from.
func newRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x5eedc1a57e25))
}

// campaignManifest renders one campaign as manifest JSON, the form a user
// writes and the daemon accepts.
func campaignManifest(name string, workloads, schemes []string, iqSizes []int, traceLen int) []byte {
	b, err := json.Marshal(campaign.Manifest{
		Name:                  name,
		Workloads:             workloads,
		Schemes:               schemes,
		IQSizes:               iqSizes,
		TraceLens:             []int{traceLen},
		SingleThreadBaselines: true,
	})
	if err != nil {
		panic(err) // a manifest of strings and ints always encodes
	}
	return b
}

// warmupManifest is the set-up campaign of the cold workloads. It does not
// depend on the seed, so set-up does the same work in every run.
func warmupManifest(iqSizes []int, traceLen int) []byte {
	return campaignManifest("warmup", []string{"dh.ilp.2.1", "dh.mem.2.1", "dh.mix.2.1"},
		[]string{"icount", "cdprf"}, iqSizes, traceLen)
}

// sortedKeys returns m's keys in order (for deterministic output).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
