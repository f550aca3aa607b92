// Package dram models a DDR3-style main memory: channels, ranks, banks,
// row-buffer locality, core-clock-domain timing derived from Table I, a
// finite per-channel request queue, and a pluggable policy for which request
// to drop when that queue fills — the hook used by the Sec. V-C experiment
// where the controller preferentially drops low-confidence (C1) prefetches.
package dram

import (
	"math/bits"

	"divlab/internal/cache"
)

// Config describes the memory system in CPU cycles (Table I at 3 GHz:
// 1 ns = 3 cycles).
type Config struct {
	Channels     int
	RanksPerChan int
	BanksPerRank int
	RowBytes     int
	// Timing, in CPU cycles.
	TRCD uint64 // activate -> column access
	TRP  uint64 // precharge
	TCAS uint64 // column access -> first data
	TRAS uint64 // activate -> precharge (minimum row-open time)
	// BurstCycles is the data-bus occupancy per 64B line transfer.
	BurstCycles uint64
	// QueueDepth is the per-channel request queue capacity.
	QueueDepth int
	// FrontLatency is the constant interconnect latency added to every
	// access (on-chip network + controller pipeline).
	FrontLatency uint64
}

// DDR3Default returns the Table I configuration: DDR3-1600, 2 channels,
// 2 ranks/channel, 8 banks/rank, tRCD = tRP = 13.75 ns, tRAS = 35 ns,
// expressed at 3 GHz.
func DDR3Default() Config {
	return Config{
		Channels:     2,
		RanksPerChan: 2,
		BanksPerRank: 8,
		RowBytes:     8192,
		TRCD:         41, // 13.75ns * 3
		TRP:          41,
		TCAS:         41,
		TRAS:         105, // 35ns * 3
		BurstCycles:  15,  // 64B at 12.8GB/s/channel = 5ns
		QueueDepth:   32,
		FrontLatency: 18, // ~6ns network + controller
	}
}

// DropPolicy selects the victim when a channel queue overflows.
type DropPolicy uint8

const (
	// DropNone is the zero value (sim.Config's default) and, despite its
	// name, sheds prefetches exactly as DropRandomPrefetch does: Access
	// treats the two alike, and every pinned result depends on that. The
	// run cache relies on it too: internal/runner answers a run under one
	// of the two from the same run under the other (TestDropNoneShedsLikeRandom
	// holds the equivalence). Demands are never shed under any policy.
	DropNone DropPolicy = iota
	// DropRandomPrefetch sheds a prefetch when the channel backlog reaches
	// a threshold jittered by the seeded random stream, so which prefetch
	// is shed under sustained pressure is effectively random (the paper's
	// default controller behaviour).
	DropRandomPrefetch
	// DropLowPriorityPrefetch sheds low-priority prefetches (priority <= 1:
	// C1's region prefetches in the composite design) once the backlog
	// reaches half the queue depth, and the rest at the full depth.
	DropLowPriorityPrefetch
)

// Request is one memory transaction presented to the controller.
type Request struct {
	LineAddr cache.Line
	Write    bool
	Prefetch bool
	// Owner is the prefetcher component id (cache.NoOwner for demand).
	Owner int
	// Priority orders prefetches for DropLowPriorityPrefetch; lower values
	// are dropped first.
	Priority int
}

// Stats counts controller activity.
type Stats struct {
	Reads             uint64
	Writes            uint64
	PrefetchReads     uint64
	RowHits           uint64
	RowMisses         uint64
	RowConflicts      uint64
	DroppedPrefetches uint64
	QueueFullWaits    uint64
}

// Lines returns the total number of lines transferred on the memory bus,
// the quantity normalized in Fig. 9.
func (s Stats) Lines() uint64 { return s.Reads + s.Writes }

type bank struct {
	openRow   uint64
	rowValid  bool
	busyUntil uint64
	openedAt  uint64
}

// channel keeps two data-bus horizons to model demand-priority scheduling:
// demand transfers queue only behind other demands (busDemand), while
// prefetch transfers queue behind everything (busAll). This keeps prefetch
// traffic from delaying demand fetches at the bus while still charging
// prefetches realistic queueing delays, and the backlog used for prefetch
// shedding is judged against the full horizon.
type channel struct {
	banks     []bank
	busDemand uint64
	busAll    uint64
}

// Controller is the memory controller. It is not safe for concurrent use;
// the simulator is single-goroutine per system.
type Controller struct {
	cfg    Config
	chans  []channel
	policy DropPolicy
	rng    uint64
	// now is a monotone controller clock (max request timestamp seen).
	// Request timestamps from the analytical core skew by up to a ROB
	// window; backlog is judged against this clock so old-stamped requests
	// do not read phantom congestion.
	now   uint64
	Stats Stats
	// Shift/mask routing: NewController refuses geometries whose channel,
	// bank-per-channel and line-per-row counts are not powers of two.
	chShift  uint
	chMask   uint64
	bankMask uint64
	rowShift uint
}

// NewController builds a controller with the given configuration and drop
// policy. Seed starts the random stream prefetch shedding draws from. It
// panics unless the channel count, the banks per channel (ranks × banks per
// rank) and the lines per row are positive powers of two, as Table I's are.
func NewController(cfg Config, policy DropPolicy, seed uint64) *Controller {
	if cfg.Channels <= 0 || cfg.BanksPerRank <= 0 || cfg.RanksPerChan <= 0 {
		panic("dram: channels, ranks and banks must be positive")
	}
	nch := uint64(cfg.Channels)
	nb := uint64(cfg.RanksPerChan * cfg.BanksPerRank)
	lpr := uint64(max(cfg.RowBytes, 0)) / cache.LineBytes
	if lpr == 0 || nch&(nch-1) != 0 || nb&(nb-1) != 0 || lpr&(lpr-1) != 0 {
		panic("dram: channels, banks per channel and lines per row must be powers of two")
	}
	chans := make([]channel, cfg.Channels)
	for i := range chans {
		chans[i].banks = make([]bank, nb)
	}
	return &Controller{
		cfg: cfg, chans: chans, policy: policy, rng: seed | 1,
		chShift:  uint(bits.TrailingZeros64(nch)),
		chMask:   nch - 1,
		bankMask: nb - 1,
		rowShift: uint(bits.TrailingZeros64(nb) + bits.TrailingZeros64(lpr)),
	}
}

func (c *Controller) rand() uint64 {
	// xorshift64 — deterministic, no global state.
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return c.rng
}

// route maps a line to its channel, bank and row. From the lowest up, the
// line index's bits pick the channel, the bank, and the line within the
// row; the bits above are the row.
func (c *Controller) route(lineAddr cache.Line) (ch *channel, b *bank, row uint64) {
	lineIdx := lineAddr.Index()
	ch = &c.chans[lineIdx&c.chMask]
	perChan := lineIdx >> c.chShift
	return ch, &ch.banks[perChan&c.bankMask], perChan >> c.rowShift
}

// backlogLines estimates the channel's queued transfer depth at cycle `at`
// from the data-bus reservation horizon.
func (c *Controller) backlogLines(ch *channel, at uint64) int {
	if ch.busAll <= at {
		return 0
	}
	return int((ch.busAll - at) / c.cfg.BurstCycles)
}

// Access services a request arriving at cycle `at`. It returns the latency
// to data return and dropped=true when a prefetch was shed by the queue
// policy (in which case no state or traffic is generated for it).
//
// Demands are never shed: they serialize behind the bus and bank
// reservations, which is where their queueing delay comes from. Prefetches
// are shed when the backlog exceeds the queue depth; under the low-priority
// policy, high-priority prefetches (T2/P1) tolerate a deeper backlog than
// low-priority ones (C1 region prefetches) — the Sec. V-C1 experiment.
func (c *Controller) Access(r Request, at uint64) (latency uint64, dropped bool) {
	ch, bk, row := c.route(r.LineAddr)
	if at > c.now {
		c.now = at
	}

	if r.Prefetch && !r.Write {
		backlog := c.backlogLines(ch, c.now)
		limit := c.cfg.QueueDepth
		switch c.policy {
		case DropLowPriorityPrefetch:
			// Shed low-confidence prefetches earlier; never admit more
			// than the random policy would.
			if r.Priority <= 1 {
				limit = c.cfg.QueueDepth / 2
			}
		case DropRandomPrefetch, DropNone:
			// Uniform shedding: jitter the threshold so which prefetch gets
			// shed under sustained pressure is effectively random.
			limit = c.cfg.QueueDepth - int(c.rand()%8)
		}
		if backlog >= limit {
			c.Stats.DroppedPrefetches++
			return 0, true
		}
	}

	start := at
	if bk.busyUntil > start {
		start = bk.busyUntil
	}

	var access uint64
	switch {
	case bk.rowValid && bk.openRow == row:
		c.Stats.RowHits++
		access = c.cfg.TCAS
	case bk.rowValid:
		c.Stats.RowConflicts++
		// Respect tRAS before precharging the open row.
		if minClose := bk.openedAt + c.cfg.TRAS; minClose > start {
			start = minClose
		}
		access = c.cfg.TRP + c.cfg.TRCD + c.cfg.TCAS
		bk.openRow, bk.rowValid = row, true
		bk.openedAt = start + c.cfg.TRP
	default:
		c.Stats.RowMisses++
		access = c.cfg.TRCD + c.cfg.TCAS
		bk.openRow, bk.rowValid = row, true
		bk.openedAt = start
	}

	dataStart := start + access
	if r.Prefetch {
		if ch.busAll > dataStart {
			dataStart = ch.busAll
		}
	} else if ch.busDemand > dataStart {
		dataStart = ch.busDemand
	}
	dataEnd := dataStart + c.cfg.BurstCycles
	if !r.Prefetch {
		ch.busDemand = dataEnd
	}
	if dataEnd > ch.busAll {
		ch.busAll = dataEnd
	}
	bk.busyUntil = dataStart

	switch {
	case r.Write:
		c.Stats.Writes++
	case r.Prefetch:
		c.Stats.PrefetchReads++
		c.Stats.Reads++
	default:
		c.Stats.Reads++
	}

	return c.cfg.FrontLatency + (dataEnd - at), false
}

// Reset returns the controller to the state NewController builds with the
// given drop policy and seed: closed rows, idle buses and zero statistics.
// The random-drop stream restarts from seed, because every prefetch draws
// from it (see DropNone).
func (c *Controller) Reset(policy DropPolicy, seed uint64) {
	for i := range c.chans {
		clear(c.chans[i].banks)
		c.chans[i].busDemand = 0
		c.chans[i].busAll = 0
	}
	c.policy = policy
	c.rng = seed | 1
	c.now = 0
	c.Stats = Stats{}
}
