package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// SchemaVersion identifies the structured report schema. Bump it on any
// incompatible change to the JSON shapes below.
const SchemaVersion = "divlab.exp/v1"

// RunConfig records the options a report was generated under.
type RunConfig struct {
	Insts   uint64 `json:"insts"`
	Seed    uint64 `json:"seed"`
	Mixes   int    `json:"mixes,omitempty"`
	Workers int    `json:"workers,omitempty"`
}

// Row is one structured data point. Every experiment's tables flatten into
// rows of (workload?, prefetcher?, variant?, metric, value): a per-workload
// speedup, a per-category scope, a sweep point, an aggregate geomean.
type Row struct {
	Workload   string `json:"workload,omitempty"`
	Prefetcher string `json:"prefetcher,omitempty"`
	// Variant disambiguates rows within one (workload, prefetcher) cell:
	// a mode ("alone", "composite"), a destination ("L1"), a category
	// ("lhf"), or an ablation label.
	Variant string  `json:"variant,omitempty"`
	Metric  string  `json:"metric"`
	Value   float64 `json:"value"`
}

// LifecycleCounts is the JSON shape of one lifecycle counter set, summed
// over cache levels.
type LifecycleCounts struct {
	Attempted         uint64 `json:"attempted"`
	Deduped           uint64 `json:"deduped"`
	DroppedMSHR       uint64 `json:"dropped_mshr"`
	DroppedDRAM       uint64 `json:"dropped_dram"`
	Installed         uint64 `json:"installed"`
	DemandHits        uint64 `json:"demand_hits"`
	EvictedUntouched  uint64 `json:"evicted_untouched"`
	ResidentUntouched uint64 `json:"resident_untouched"`
}

// Flatten converts internal per-level counters to the JSON shape.
func (c OwnerCounts) Flatten() LifecycleCounts {
	return LifecycleCounts{
		Attempted:         c.Attempted,
		Deduped:           c.Deduped,
		DroppedMSHR:       c.DroppedMSHR,
		DroppedDRAM:       c.DroppedDRAM,
		Installed:         c.InstalledTotal(),
		DemandHits:        c.DemandHitsTotal(),
		EvictedUntouched:  c.EvictedTotal(),
		ResidentUntouched: c.ResidentTotal(),
	}
}

// Check asserts the conservation laws on a flattened counter set (the
// validator runs this on parsed JSON, where per-level detail is gone).
func (c LifecycleCounts) Check() error {
	if got := c.Deduped + c.DroppedMSHR + c.DroppedDRAM + c.Installed; got != c.Attempted {
		return fmt.Errorf("lifecycle: attempted=%d but deduped+dropped+installed=%d", c.Attempted, got)
	}
	if got := c.DemandHits + c.EvictedUntouched + c.ResidentUntouched; got != c.Installed {
		return fmt.Errorf("lifecycle: installed=%d but hits+evicted+resident=%d", c.Installed, got)
	}
	return nil
}

// OwnerLifecycle attributes one component's counters by id and name.
type OwnerLifecycle struct {
	Owner int    `json:"owner"`
	Name  string `json:"name,omitempty"`
	LifecycleCounts
}

// LifecycleBlock is the ground-truth counter set of one (workload,
// prefetcher) simulation.
type LifecycleBlock struct {
	Workload   string           `json:"workload"`
	Prefetcher string           `json:"prefetcher"`
	Total      LifecycleCounts  `json:"total"`
	PerOwner   []OwnerLifecycle `json:"per_owner,omitempty"`
}

// Report is the machine-readable output of one experiment: the run
// configuration, the flattened table rows, the aggregates, and (when
// lifecycle tracing was enabled) per-run ground-truth counters.
type Report struct {
	Schema      string           `json:"schema"`
	Experiment  string           `json:"experiment"`
	Description string           `json:"description,omitempty"`
	Config      RunConfig        `json:"config"`
	Rows        []Row            `json:"rows,omitempty"`
	Aggregates  []Row            `json:"aggregates,omitempty"`
	Lifecycle   []LifecycleBlock `json:"lifecycle,omitempty"`
}

// NewReport starts an empty report for one experiment.
func NewReport(experiment, description string, cfg RunConfig) *Report {
	return &Report{Schema: SchemaVersion, Experiment: experiment, Description: description, Config: cfg}
}

// AddRow appends a data row.
func (r *Report) AddRow(row Row) { r.Rows = append(r.Rows, row) }

// AddAggregate appends an aggregate row.
func (r *Report) AddAggregate(row Row) { r.Aggregates = append(r.Aggregates, row) }

// AddLifecycle appends one run's ground-truth counter block.
func (r *Report) AddLifecycle(b LifecycleBlock) { r.Lifecycle = append(r.Lifecycle, b) }

// Validate checks schema conformance and the lifecycle conservation laws.
func (r *Report) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("report %q: schema %q, want %q", r.Experiment, r.Schema, SchemaVersion)
	}
	if r.Experiment == "" {
		return fmt.Errorf("report: empty experiment name")
	}
	for i, row := range append(append([]Row{}, r.Rows...), r.Aggregates...) {
		if row.Metric == "" {
			return fmt.Errorf("report %q: row %d has no metric", r.Experiment, i)
		}
	}
	for _, b := range r.Lifecycle {
		if err := b.Total.Check(); err != nil {
			return fmt.Errorf("report %q: %s/%s: %w", r.Experiment, b.Workload, b.Prefetcher, err)
		}
		var sum LifecycleCounts
		for _, o := range b.PerOwner {
			if err := o.Check(); err != nil {
				return fmt.Errorf("report %q: %s/%s owner %d: %w", r.Experiment, b.Workload, b.Prefetcher, o.Owner, err)
			}
			sum.Attempted += o.Attempted
			sum.Deduped += o.Deduped
			sum.DroppedMSHR += o.DroppedMSHR
			sum.DroppedDRAM += o.DroppedDRAM
			sum.Installed += o.Installed
			sum.DemandHits += o.DemandHits
			sum.EvictedUntouched += o.EvictedUntouched
			sum.ResidentUntouched += o.ResidentUntouched
		}
		if len(b.PerOwner) > 0 && sum != b.Total {
			return fmt.Errorf("report %q: %s/%s: per-owner counters do not sum to total", r.Experiment, b.Workload, b.Prefetcher)
		}
	}
	return nil
}

// Encode writes the report as indented JSON.
func (r *Report) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// EncodeReports writes several reports as one JSON array.
func EncodeReports(w io.Writer, reports []*Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}

// DecodeReports parses a JSON document holding either a single report
// object or an array of them.
func DecodeReports(data []byte) ([]*Report, error) {
	var many []*Report
	if err := json.Unmarshal(data, &many); err == nil {
		return many, nil
	}
	var one Report
	if err := json.Unmarshal(data, &one); err != nil {
		return nil, fmt.Errorf("obs: not a report or report array: %w", err)
	}
	return []*Report{&one}, nil
}
