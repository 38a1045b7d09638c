package core

import (
	"fmt"

	"clustersmt/internal/cachesim"
	"clustersmt/internal/frontend"
	"clustersmt/internal/isa"
	"clustersmt/internal/metrics"
)

// imbClass maps a uop class onto the Fig. 5 grouping.
//
//smtlint:noalloc
func imbClass(c isa.Class) metrics.ImbClass {
	switch c {
	case isa.Fp:
		return metrics.ImbFp
	case isa.Load, isa.Store:
		return metrics.ImbMem
	default:
		return metrics.ImbInt
	}
}

// imbRep is a representative class per imbalance group, used to test port
// availability in the other cluster.
//
//smtlint:noalloc
func imbRep(c metrics.ImbClass) isa.Class {
	switch c {
	case metrics.ImbFp:
		return isa.Fp
	case metrics.ImbMem:
		return isa.Load
	default:
		return isa.Int
	}
}

// entryReady reports whether all source operands of e are data-ready.
//
//smtlint:noalloc
func (p *Processor) entryReady(e *frontend.ROBEntry) bool {
	if e.IsCopy() {
		return e.CopySrcPhys < 0 || p.rfs[e.SrcCluster].IsReady(e.DstKind, e.CopySrcPhys)
	}
	for i := 0; i < e.NumSrc; i++ {
		if ph := e.SrcPhys[i]; ph >= 0 && !p.rfs[e.Cluster].IsReady(e.SrcKind[i], ph) {
			return false
		}
	}
	return true
}

// schedule enqueues e's completion at cycle at.
//
//smtlint:noalloc
func (p *Processor) schedule(e *frontend.ROBEntry, at int64) {
	if at <= p.now {
		at = p.now + 1
	}
	if at-p.now > p.wheelMask {
		// The wheel is sized from Config.WorstCaseLatency and Validate
		// rejects configurations that cannot fit; reaching this means the
		// worst-case formula missed a latency path. Clamping here would
		// silently complete the uop early and corrupt results, so fail loud.
		panic(fmt.Sprintf("core: completion %d cycles ahead exceeds the %d-slot event wheel (WorstCaseLatency undercounts a path)",
			at-p.now, p.wheelMask+1))
	}
	e.InWheel = true
	e.WheelNext = nil
	b := &p.wheel[at&p.wheelMask]
	if b.tail != nil {
		b.tail.WheelNext = e
	} else {
		b.head = e
	}
	b.tail = e
}

// executeLoad performs the memory access of a ready load at issue time and
// returns its completion cycle.
//
//smtlint:noalloc
func (p *Processor) executeLoad(e *frontend.ROBEntry) int64 {
	u := &e.Uop
	p.mobq.Resolve(e.MOBEntry, u.Addr)
	if p.mobq.Forward(e.Thread, e.Seq, u.Addr) {
		// Store-to-load forwarding: AGU + one bypass cycle.
		return p.now + 2
	}
	res := p.mem.Access(u.Addr, p.now)
	if res.Level == cachesim.MemHit {
		e.MissedL2 = true
		e.MissNotified = true
		if !e.WrongPath {
			p.stats.L2Misses++
		}
		p.notifyMissStart(e.Thread, e.Seq)
	}
	return res.DoneAt + 1 // +1 for address generation
}

// issueCluster selects and dispatches ready uops from cluster c, oldest
// first, respecting port, L1-port, MSHR and link constraints. It records
// ready-but-unissued uops in the leftover matrix for the Fig. 5 metric.
//
//smtlint:noalloc
func (p *Processor) issueCluster(c int) (issuedAny bool) {
	ready := p.scratchReady[:0]
	if p.cfg.PollingWakeup {
		// Ablation/verification path: the pre-event-driven full scan,
		// re-testing every waiting entry's sources every cycle.
		p.iqs[c].Scan(func(e *frontend.ROBEntry, _ int) bool {
			if p.entryReady(e) {
				//smtlint:allow scratch retained on the processor; amortized zero-alloc after warmup
				ready = append(ready, e)
			}
			return true
		})
	} else {
		p.iqs[c].ScanReady(func(e *frontend.ROBEntry) bool {
			//smtlint:allow scratch retained on the processor; amortized zero-alloc after warmup
			ready = append(ready, e)
			return true
		})
		if debugWakeup {
			//smtlint:allow debug-only cross-check behind the debugWakeup flag
			p.checkReadyList(c, ready)
		}
	}
	p.scratchReady = ready[:0]

	for _, e := range ready {
		u := &e.Uop
		if e.IsCopy() {
			arrive, ok := p.net.TryTransfer(p.now)
			if !ok {
				continue // link bandwidth exhausted this cycle
			}
			e.Issued = true
			p.iqs[c].RemoveAt(e.IQSlot, e)
			e.IQSlot = -1
			p.schedule(e, arrive)
			p.stats.CopyTransfers++
			issuedAny = true
			continue
		}
		if !p.ports[c].HasFree(u.Class) {
			p.scratchLeftover[imbClass(u.Class)][c] = true
			continue
		}
		var doneAt int64
		switch u.Class {
		case isa.Load:
			// The L1 ports and MSHRs are shared between clusters; a load
			// held up by them is not a cluster-imbalance event.
			if !p.mem.MSHRAvailable(p.now) || !p.mem.TryReadPort(p.now) {
				continue
			}
			doneAt = p.executeLoad(e)
		case isa.Store:
			p.mobq.Resolve(e.MOBEntry, u.Addr)
			doneAt = p.now + int64(isa.Latency(u.Class))
		default:
			doneAt = p.now + int64(isa.Latency(u.Class))
		}
		if _, ok := p.ports[c].TryIssue(u.Class); !ok {
			panic("core: port grant failed after HasFree")
		}
		e.Issued = true
		p.iqs[c].RemoveAt(e.IQSlot, e)
		e.IQSlot = -1
		p.schedule(e, doneAt)
		p.stats.IssuedUops++
		issuedAny = true
	}
	return issuedAny
}

// issue runs the per-cluster select/dispatch and accumulates the Fig. 5
// workload-imbalance histogram.
//
//smtlint:noalloc
func (p *Processor) issue() {
	for c := range p.ports {
		p.ports[c].Reset()
	}
	p.scratchLeftover = [metrics.NumImbClasses][MaxClusters]bool{}
	issuedAny := false
	// Alternate which cluster selects first so neither has a standing
	// advantage at the shared L1 ports and links.
	start := int(p.now) % p.cfg.NumClusters
	for i := 0; i < p.cfg.NumClusters; i++ {
		if p.issueCluster(wrapIdx(start+i, p.cfg.NumClusters)) {
			issuedAny = true
		}
	}
	if issuedAny {
		p.stats.IssueCycles++
	}
	if p.cfg.NumClusters < 2 {
		return
	}
	for k := 0; k < metrics.NumImbClasses; k++ {
		present := false
		couldElsewhere := false
		for c := 0; c < p.cfg.NumClusters; c++ {
			if !p.scratchLeftover[k][c] {
				continue
			}
			present = true
			for o := 0; o < p.cfg.NumClusters; o++ {
				if o != c && p.ports[o].HasFree(imbRep(metrics.ImbClass(k))) {
					couldElsewhere = true
				}
			}
		}
		if !present {
			continue
		}
		if couldElsewhere {
			p.stats.Imbalance[k][1]++
		} else {
			p.stats.Imbalance[k][0]++
		}
	}
}
