package main

import (
	"fmt"
	"time"

	"divlab/internal/cache"
	"divlab/internal/cpu"
	"divlab/internal/dram"
	"divlab/internal/mem"
	"divlab/internal/prefetch"
	"divlab/internal/sim"
	"divlab/internal/trace"
	"divlab/internal/workloads"
)

// Replays rebuild one layer alone through its public constructor and feed
// it what the traced simulation captured at its boundary. Each replay must
// reproduce the captured run exactly; a replay that does not is a failed
// operation of the traced run.

// latPort answers the core's demand accesses with the captured latencies.
type latPort struct {
	lats []uint64
	i    int
	over bool
}

func (p *latPort) Access(pc, addr, at uint64, store bool) uint64 {
	if p.i >= len(p.lats) {
		p.over = true
		return 1
	}
	l := p.lats[p.i]
	p.i++
	return l
}

// nopWindows receives dispatch windows and drops them, so a replayed core
// takes the same StepBatch window path the simulation did.
type nopWindows struct{}

func (nopWindows) OnInstWindow([]trace.Inst, []uint64) {}

// replayCPU runs cpu.New + Core.Run over the recorded instructions with the
// captured latencies. windowed selects the StepBatch window path that sim
// uses for instruction-observing components.
func replayCPU(rec *sim.Recorded, insts uint64, lats []uint64, windowed bool) (cpu.Result, time.Duration, error) {
	port := &latPort{lats: lats}
	var hook cpu.InstHook
	if windowed {
		hook = func(*trace.Inst, uint64) {}
	}
	core := cpu.New(cpu.DefaultParams(), port, hook)
	if windowed {
		core.SetWindowSink(nopWindows{})
	}
	src := &trace.Limit{Src: rec.Instance(), N: insts}
	t0 := time.Now()
	res := core.Run(src)
	d := time.Since(t0)
	if port.over || port.i != len(lats) {
		return res, d, fmt.Errorf("cpu replay made %d accesses, the capture has %d", port.i, len(lats))
	}
	return res, d, nil
}

// memReplay is the outcome of one hierarchy replay.
type memReplay struct {
	demand, prefetch         time.Duration
	demandSegs, prefetchSegs int
	nDemand, nPrefetch       int
	l1, l2, l3               cache.Stats
	fullStalls               uint64
	dram                     dram.Stats
}

// replayMem replays the captured demand accesses and prefetch requests, in
// call order, into a fresh system built by mem.NewSystem/NewHierarchy, and
// checks every returned latency and every counter against the run. It
// replays twice: once reading the clock only where the op kind changes, to
// split the time between demand and prefetch, and once reading it only at
// the ends. The second gives the total, which the first run's split divides
// after removing the bias of its clock reads.
func replayMem(c *simCase, ops []memOp, rs []*sim.Result, bias time.Duration) (memReplay, error) {
	split, err := replayMemOnce(c, ops, rs, true)
	if err != nil {
		return split, err
	}
	out, err := replayMemOnce(c, ops, rs, false)
	if err != nil {
		return out, err
	}
	d := max(0, split.demand-time.Duration(split.demandSegs)*bias)
	p := max(0, split.prefetch-time.Duration(split.prefetchSegs)*bias)
	total := out.demand
	out.demand = time.Duration(float64(total) * ratio(float64(d), float64(d+p)))
	out.prefetch = total - out.demand
	return out, nil
}

// replayMemOnce is one replay. With split set it charges each run of
// same-kind ops to demand or prefetch; otherwise all time lands in demand.
func replayMemOnce(c *simCase, ops []memOp, rs []*sim.Result, split bool) (memReplay, error) {
	var out memReplay
	cores := c.cores()
	cfg := mem.DefaultConfig(cores)
	sys := mem.NewSystem(cfg, c.cfg.DropPolicy, c.cfg.Seed)
	hs := make([]*mem.Hierarchy, cores)
	for i := range hs {
		hs[i] = mem.NewHierarchy(cfg, sys)
	}
	var ev mem.Event
	badLat := 0
	seg := time.Now()
	kind := opDemand
	charge := func(now time.Time) {
		if kind == opDemand {
			out.demand += now.Sub(seg)
			out.demandSegs++
		} else {
			out.prefetch += now.Sub(seg)
			out.prefetchSegs++
		}
		seg = now
	}
	for i := range ops {
		o := &ops[i]
		if split && o.kind != kind {
			charge(time.Now())
			kind = o.kind
		}
		h := hs[o.core]
		if o.kind == opDemand {
			out.nDemand++
			if h.AccessInto(o.pc, o.addr, o.at, o.store, &ev) != o.lat {
				badLat++
			}
			continue
		}
		out.nPrefetch++
		h.Prefetch(o.req.LineAddr, o.req.Dest, o.req.Owner, o.req.Priority, o.at)
	}
	charge(time.Now())

	if badLat > 0 {
		return out, fmt.Errorf("mem replay: %d demand latencies differ", badLat)
	}
	for i, h := range hs {
		r := rs[i]
		if h.L1D.Stats != r.L1Stats || h.L2.Stats != r.L2Stats || sys.Mem.Stats != r.DRAM ||
			h.Stats.PrefetchesIssued != r.Issued || h.Stats.PrefetchesFiltered != r.Filtered {
			return out, fmt.Errorf("mem replay: core %d counters differ from the run", i)
		}
		out.l1 = addStats(out.l1, h.L1D.Stats)
		out.l2 = addStats(out.l2, h.L2.Stats)
		out.fullStalls += h.L1D.MSHR().FullStalls
	}
	out.l3 = sys.L3.Stats
	out.dram = sys.Mem.Stats
	return out, nil
}

func addStats(a, b cache.Stats) cache.Stats {
	a.Accesses += b.Accesses
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.SecondaryMisses += b.SecondaryMisses
	a.PrefetchFills += b.PrefetchFills
	a.DemandFills += b.DemandFills
	a.PrefetchHits += b.PrefetchHits
	a.PrefetchedEvictedUnused += b.PrefetchedEvictedUnused
	return a
}

// countSink owns a prefetch.Sink and drains it by counting.
type countSink struct {
	sink prefetch.Sink
	n    int
}

func (s *countSink) FlushSink() {
	s.n += s.sink.Len()
	s.sink.Reset()
}

// replayPrefetch feeds one core's captured deliveries, in order, to a fresh
// component built by the case's factory, through the same dispatch entry
// points sim uses. It returns the time, the events delivered (accesses plus
// window instructions) and the requests the component issued.
func replayPrefetch(f sim.Factory, inst workloads.Instance, cc *coreCapture) (time.Duration, int, int) {
	comp := f(inst)
	prefetch.AssignIDs(comp, 1)
	cs := &countSink{}
	cs.sink.Init(cs)
	bc, _ := comp.(prefetch.BatchComponent)
	io, _ := comp.(prefetch.InstObserver)
	bio, _ := comp.(prefetch.BatchInstObserver)
	evs := make([]mem.Event, 1)
	events := 0
	t0 := time.Now()
	for i := range cc.deliveries {
		d := &cc.deliveries[i]
		if d.window {
			events += d.hi - d.lo
			prefetch.InstBatch(io, bio, cc.insts[d.lo:d.hi], cc.cycles[d.lo:d.hi], &cs.sink)
		} else {
			events++
			evs[0] = d.ev
			prefetch.AccessBatch(comp, bc, evs, &cs.sink)
		}
		if cs.sink.Len() != 0 {
			cs.FlushSink()
		}
	}
	return time.Since(t0), events, cs.n
}
