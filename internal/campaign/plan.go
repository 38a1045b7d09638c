package campaign

import (
	"clustersmt/internal/metrics"
	"clustersmt/internal/policy"
)

// Plan is the placement half of a campaign, split from execution: the
// validated, deterministic item expansion and the assembly of raw
// simulation outcomes into the campaign's ResultSet. Whoever runs the
// items — the Engine's in-process lease loops or remote fleet workers —
// the ResultSets are identical, because every per-item decision
// (ordering, labeling, result shaping, fairness, tallies) lives here, not
// in the executor.
type Plan struct {
	// Manifest is the campaign declaration the plan was expanded from.
	Manifest *Manifest
	// Items is the full expansion in canonical order; ResultSet.Results
	// indexes match it one-to-one.
	Items []Item
}

// NewPlan validates m and expands it into a plan.
func NewPlan(m *Manifest) (*Plan, error) {
	items, err := m.Expand()
	if err != nil {
		return nil, err
	}
	return &Plan{Manifest: m, Items: items}, nil
}

// NewResultSet returns the empty result set the plan's execution fills:
// one slot per item, in expansion order.
func (p *Plan) NewResultSet(version string) *ResultSet {
	return &ResultSet{
		Campaign: p.Manifest.Name,
		Version:  version,
		Total:    len(p.Items),
		Results:  make([]Result, len(p.Items)),
	}
}

// Result assembles item i's result row from a raw simulation outcome:
// the content-addressed key, the stats (nil on failure), whether the
// executor actually simulated (false = store or singleflight hit) and the
// terminal error. The row is a pure function of these inputs plus the
// item's coordinates, which is what makes local and fleet runs of one
// manifest bit-for-bit comparable.
func (p *Plan) Result(i int, key string, st *metrics.Stats, executed bool, err error) Result {
	it := p.Items[i]
	res := Result{
		Label:        it.Label(),
		Workload:     it.Base,
		Scheme:       it.Spec.Scheme,
		SchemeSpec:   schemeSpecEcho(it.Spec.Scheme),
		IQSize:       it.Spec.IQSize,
		RegsPerClust: it.Spec.RegsPerClust,
		ROBPerThread: it.Spec.ROBPerThread,
		TraceLen:     it.TraceLen,
		Rep:          it.Rep,
		SingleThread: it.Spec.SingleThread,
		NumClusters:  it.Spec.NumClusters,
		Links:        it.Spec.Links,
		LinkLatency:  it.Spec.LinkLatency,
		MemLatency:   it.Spec.MemLatency,
		Key:          key,
	}
	switch {
	case err != nil:
		res.Error = err.Error()
	case st != nil:
		res.Cached = !executed
		res.IPC = st.IPC()
		res.CopiesPerRet = st.CopiesPerRetired()
		res.IQStallsRet = st.IQStallsPerRetired()
		if it.Spec.SingleThread < 0 {
			for t := range it.Spec.Workload.Threads {
				res.ThreadIPC = append(res.ThreadIPC, st.ThreadIPC(t))
			}
		}
	default:
		res.Error = "simulation failed"
	}
	return res
}

// Finalize completes a fully-populated result set: the §4 fairness pass
// (when the manifest requested single-thread baselines) and the
// executed / store-hit / failed tallies. Call it exactly once, after every
// Results slot has been filled.
func (p *Plan) Finalize(rs *ResultSet) {
	if p.Manifest.SingleThreadBaselines {
		p.fillFairness(rs)
	}
	rs.Executed, rs.StoreHits, rs.Failed = 0, 0, 0
	for i := range rs.Results {
		switch {
		case rs.Results[i].Error != "":
			rs.Failed++
		case rs.Results[i].Cached:
			rs.StoreHits++
		default:
			rs.Executed++
		}
	}
}

// fillFairness computes the §4 fairness metric for every SMT result whose
// per-thread Icount baselines all completed at the same axis point.
func (p *Plan) fillFairness(rs *ResultSet) {
	single := map[baselinePoint]float64{}
	for i, it := range p.Items {
		if it.Spec.SingleThread >= 0 && rs.Results[i].Error == "" {
			single[pointOf(it, it.Spec.SingleThread)] = rs.Results[i].IPC
		}
	}
	for i, it := range p.Items {
		if it.Spec.SingleThread >= 0 || rs.Results[i].Error != "" {
			continue
		}
		n := len(it.Spec.Workload.Threads)
		if len(rs.Results[i].ThreadIPC) != n {
			continue
		}
		singles := make([]float64, 0, n)
		for t := 0; t < n; t++ {
			ipc, ok := single[pointOf(it, t)]
			if !ok {
				break
			}
			singles = append(singles, ipc)
		}
		if len(singles) == n {
			rs.Results[i].Fairness = metrics.Fairness(singles, rs.Results[i].ThreadIPC)
		}
	}
}

// schemeSpecEcho renders the full component composition of a canonical
// scheme reference for result rows ("" when unparseable — the item's error
// field carries the diagnosis).
func schemeSpecEcho(scheme string) string {
	sp, err := policy.ParseSpec(scheme)
	if err != nil {
		return ""
	}
	return sp.Format()
}
