// Package hot seeds every allocation class hotalloc classifies on a hook
// entry path, next to negatives that must stay silent: pointer-shaped
// interface arguments, capture-free literals, struct values built in place,
// functions no entry reaches, and a justified allow.
package hot

import (
	"divlab/internal/mem"
	"divlab/internal/prefetch"
)

// Greedy implements prefetch.Component; its OnAccess path is a hot-path
// entry and allocates in every classified way.
type Greedy struct {
	prefetch.Base
	history []uint64
	counts  map[uint64]int
	scratch [8]uint64
	sink    interface{}
	note    string
	raw     []byte
}

func (*Greedy) Name() string     { return "greedy" }
func (*Greedy) Reset()           {}
func (*Greedy) StorageBits() int { return 0 }

func (g *Greedy) OnAccess(ev *mem.Event, issue prefetch.Issuer) {
	addr := ev.LineAddr.Addr()

	m := make(map[uint64]int, 4)        // want "make allocates"
	p := new(uint64)                    // want "new allocates"
	g.history = append(g.history, addr) // want "append may grow its backing array"
	e := &entry{addr: addr}             // want "&composite literal escapes to the heap"
	table := map[uint64]int{addr: 1}    // want "map literal allocates"
	window := []uint64{addr, addr + 1}  // want "slice literal allocates its backing array"
	consume(addr)                       // want "interface boxing of uint64 argument"
	fn := func() uint64 { return addr } // want "closure capturing \"addr\" allocates"
	g.note = string(g.raw)              // want "string conversion copies the slice"
	g.raw = []byte(g.note)              // want "byte/rune slice conversion copies the string"
	g.counts[addr]++                    // want "map write may allocate"
	deeper(addr)

	_ = m
	_ = p
	_ = e
	_ = table
	_ = window
	_ = fn

	// Negatives: pointer-shaped values box for free, capture-free literals
	// are static, struct values build in place, arrays index without hashing.
	consume(ev)                       // ok: pointer argument needs no box
	consume(g.counts)                 // ok: maps are pointer-shaped
	hop := func() uint64 { return 0 } // ok: captures nothing
	_ = hop
	v := entry{addr: addr} // ok: struct value, no & escape
	_ = v
	g.scratch[0] = addr // ok: array write, not a map

	//lint:allow hotalloc -- deliberate amortized growth, measured in BenchmarkAccessPath
	g.history = append(g.history, addr+1)
}

type entry struct{ addr uint64 }

// consume takes an interface so boxing happens at its call sites.
func consume(v interface{}) { sinkhole = v }

var sinkhole interface{}

// deeper is reachable through OnAccess: its allocation reports with the
// full entry chain.
func deeper(addr uint64) {
	hold(&entry{addr: addr}) // want "escapes to the heap on hot path ..hot.Greedy..OnAccess -> hot.deeper"
}

func hold(e *entry) { kept = e }

var kept *entry

// cold is never reached from a hot entry: its allocations must stay silent.
func cold() []uint64 {
	return make([]uint64, 64) // ok: no hot path reaches here
}

// Burst implements prefetch.BatchComponent: its native OnAccessBatch hook is
// a pinned entry in its own right — batch hooks bypass the scalar adapter,
// so reachability through OnAccess alone would miss them.
type Burst struct {
	prefetch.Base
	seen []uint64
}

func (*Burst) Name() string     { return "burst" }
func (*Burst) Reset()           {}
func (*Burst) StorageBits() int { return 0 }

func (b *Burst) OnAccess(ev *mem.Event, issue prefetch.Issuer) {
	_ = ev.LineAddr.Addr() // ok: allocation-free scalar hook
}

func (b *Burst) OnAccessBatch(evs []mem.Event, sink *prefetch.Sink) {
	for i := range evs {
		sink.Advance(evs[i].Cycle)
		b.seen = append(b.seen, evs[i].LineAddr.Addr()) // want "append may grow its backing array"
		batchTail(&evs[i])
	}
}

// batchTail is reachable only through the batch hook: its report proves the
// walk starts at OnAccessBatch, not just at the scalar surface.
func batchTail(ev *mem.Event) {
	hold(&entry{addr: ev.LineAddr.Addr()}) // want "escapes to the heap on hot path ..hot.Burst..OnAccessBatch -> hot.batchTail"
}
