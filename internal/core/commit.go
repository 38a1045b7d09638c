package core

import (
	"clustersmt/internal/frontend"
	"clustersmt/internal/isa"
)

// commitEntry retires e: frees the previous mappings of its destination
// logical register, releases its MOB entry and returns it to the pool.
//
//smtlint:noalloc
func (p *Processor) commitEntry(t int, e *frontend.ROBEntry) {
	if e.WrongPath {
		panic("core: wrong-path uop reached commit")
	}
	if e.DstPhys >= 0 && !e.IsCopy() {
		// An architectural definition kills every older physical copy of
		// the logical register (in any cluster), including copies made by
		// inter-cluster copy uops; they are dead once this writer retires.
		for c := 0; c < p.cfg.NumClusters; c++ {
			if e.OldMap.Valid[c] {
				p.rfs[c].Free(e.DstKind, t, e.OldMap.Phys[c])
			}
		}
	}
	if e.MOBEntry != nil {
		p.mobq.Release(e.MOBEntry)
		e.MOBEntry = nil
	}
	if e.IsCopy() {
		p.stats.CommittedCopies++
	} else {
		ts := p.threads[t]
		ts.committed++
		p.stats.Committed[t]++
		if ts.warmCycle < 0 && ts.committed >= p.cfg.WarmupUops {
			ts.warmCycle = p.now
			ts.warmCommitted = ts.committed
		}
	}
	p.putEntry(e)
}

// commit retires up to CommitWidth completed uops in program order per
// thread, rotating which thread drains first each cycle.
//
//smtlint:noalloc
func (p *Processor) commit() {
	n := p.cfg.NumThreads
	budget := p.cfg.CommitWidth
	start := p.rrCommit
	p.rrCommit = (p.rrCommit + 1) % n
	for i := 0; i < n && budget > 0; i++ {
		t := wrapIdx(start+i, n)
		ts := p.threads[t]
		for budget > 0 {
			e := ts.rob.Head()
			if e == nil || !e.Completed {
				break
			}
			if e.Uop.Class == isa.Store {
				// Stores write the cache at retirement through the L1
				// write ports; port exhaustion delays younger commits.
				if !p.mem.TryWritePort(p.now) {
					break
				}
				p.mem.Access(e.Uop.Addr, p.now)
			}
			ts.rob.PopHead()
			p.commitEntry(t, e)
			budget--
		}
	}
}
