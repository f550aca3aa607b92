package sim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"divlab/internal/mem"
	"divlab/internal/prefetch"
	"divlab/internal/prefetchers"
	"divlab/internal/tpc"
	"divlab/internal/workloads"
)

// Named pairs a display name with a prefetcher factory. The name is the
// normalized spec string: two Named values with equal names describe the
// same configuration, which is what the runner's memo cache keys on.
type Named struct {
	Name    string
	Factory Factory
}

// Baseline returns the no-prefetch configuration.
func Baseline() Named { return Named{Name: "none", Factory: nil} }

// paramDef is one tunable knob of a registered prefetcher, with its default.
type paramDef struct {
	key string
	def int
}

// regEntry is one row of the prefetcher registry: a buildable atom.
type regEntry struct {
	name    string
	aliases []string
	desc    string
	// params are the accepted integer knobs, in canonical order.
	params []paramDef
	// hasDest marks atoms whose fill destination can be overridden with
	// dest=l1|l2|l3 (default L1).
	hasDest bool
	// mono marks the Table II monolithic lineup, in registry order.
	mono bool
	// arity is the number of cooperating prefetch components the entry
	// instantiates (the division-of-labor composites: t2=1, t2+p1=2, tpc=3).
	// Zero means a single monolithic component.
	arity int
	// build constructs the factory from the resolved destination and the
	// fully-defaulted parameter map.
	build func(dest mem.Level, v map[string]int) Factory
}

// registry is the single source of truth for every buildable prefetcher:
// Monolithic, AllEvaluated, ByName and List all derive from it. Order
// matters: the mono entries appear in Table II order.
var registry = []regEntry{
	{
		name: "ghb-pc/dc", aliases: []string{"ghb"},
		desc:    "GHB PC/DC delta-correlation prefetcher",
		params:  []paramDef{{"entries", 256}, {"degree", 4}},
		hasDest: true, mono: true,
		build: func(dest mem.Level, v map[string]int) Factory {
			return func(workloads.Instance) prefetch.Component {
				return prefetchers.NewGHB(dest, v["entries"], v["degree"])
			}
		},
	},
	{
		name:    "fdp",
		desc:    "feedback-directed stream prefetcher",
		hasDest: true, mono: true,
		build: func(dest mem.Level, v map[string]int) Factory {
			return func(workloads.Instance) prefetch.Component { return prefetchers.NewFDP(dest) }
		},
	},
	{
		name:    "vldp",
		desc:    "variable-length delta prefetcher",
		params:  []paramDef{{"degree", 4}},
		hasDest: true, mono: true,
		build: func(dest mem.Level, v map[string]int) Factory {
			return func(workloads.Instance) prefetch.Component { return prefetchers.NewVLDP(dest, v["degree"]) }
		},
	},
	{
		name:    "spp",
		desc:    "signature path prefetcher",
		params:  []paramDef{{"threshold", 25}, {"maxdepth", 8}},
		hasDest: true, mono: true,
		build: func(dest mem.Level, v map[string]int) Factory {
			return func(workloads.Instance) prefetch.Component {
				return prefetchers.NewSPP(dest, v["threshold"], v["maxdepth"])
			}
		},
	},
	{
		name:    "bop",
		desc:    "best-offset prefetcher",
		hasDest: true, mono: true,
		build: func(dest mem.Level, v map[string]int) Factory {
			return func(workloads.Instance) prefetch.Component { return prefetchers.NewBOP(dest) }
		},
	},
	{
		name:    "ampm",
		desc:    "access-map pattern-matching prefetcher",
		params:  []paramDef{{"maxstride", 16}, {"degree", 2}},
		hasDest: true, mono: true,
		build: func(dest mem.Level, v map[string]int) Factory {
			return func(workloads.Instance) prefetch.Component {
				return prefetchers.NewAMPM(dest, v["maxstride"], v["degree"])
			}
		},
	},
	{
		name:    "sms",
		desc:    "spatial memory streaming prefetcher",
		hasDest: true, mono: true,
		build: func(dest mem.Level, v map[string]int) Factory {
			return func(workloads.Instance) prefetch.Component { return prefetchers.NewSMS(dest) }
		},
	},
	{
		name:    "nextline",
		desc:    "next-N-line prefetcher",
		params:  []paramDef{{"degree", 1}},
		hasDest: true,
		build: func(dest mem.Level, v map[string]int) Factory {
			return func(workloads.Instance) prefetch.Component { return prefetchers.NewNextLine(dest, v["degree"]) }
		},
	},
	{
		name:    "stride",
		desc:    "PC-indexed stride prefetcher",
		params:  []paramDef{{"entries", 256}, {"degree", 4}},
		hasDest: true,
		build: func(dest mem.Level, v map[string]int) Factory {
			return func(workloads.Instance) prefetch.Component {
				return prefetchers.NewStride(dest, v["entries"], v["degree"])
			}
		},
	},
	{
		name:    "markov",
		desc:    "Markov (address-correlation) prefetcher",
		params:  []paramDef{{"degree", 2}},
		hasDest: true,
		build: func(dest mem.Level, v map[string]int) Factory {
			return func(workloads.Instance) prefetch.Component { return prefetchers.NewMarkov(dest, v["degree"]) }
		},
	},
	{
		name:    "streambuf",
		desc:    "stream buffers",
		params:  []paramDef{{"depth", 4}},
		hasDest: true,
		build: func(dest mem.Level, v map[string]int) Factory {
			return func(workloads.Instance) prefetch.Component { return prefetchers.NewStreamBuf(dest, v["depth"]) }
		},
	},
	{
		name: "t2", arity: 1,
		desc: "division-of-labor T2 (regular targets) alone",
		build: func(mem.Level, map[string]int) Factory {
			return func(inst workloads.Instance) prefetch.Component {
				return tpc.New(tpc.Options{EnableT2: true, Memory: inst.Memory()})
			}
		},
	},
	{
		name: "t2+p1", arity: 2,
		desc: "T2 plus P1 (pointer chains)",
		build: func(mem.Level, map[string]int) Factory {
			return func(inst workloads.Instance) prefetch.Component {
				return tpc.New(tpc.Options{EnableT2: true, EnableP1: true, Memory: inst.Memory()})
			}
		},
	},
	{
		name: "tpc", arity: 3,
		desc: "full T2+P1+C1 division-of-labor composite",
		build: func(mem.Level, map[string]int) Factory {
			return func(inst workloads.Instance) prefetch.Component {
				return tpc.New(tpc.DefaultOptions(inst.Memory()))
			}
		},
	},
}

func findEntry(name string) *regEntry {
	for i := range registry {
		e := &registry[i]
		if e.name == name {
			return e
		}
		for _, a := range e.aliases {
			if a == name {
				return e
			}
		}
	}
	return nil
}

// named builds the entry's Named for the given overrides, normalizing the
// name so equal configurations compare equal (defaults are elided).
func (e *regEntry) named(dest mem.Level, v map[string]int) Named {
	vals := make(map[string]int, len(e.params))
	var parts []string
	for _, p := range e.params {
		val, ok := v[p.key]
		if !ok {
			val = p.def
		}
		vals[p.key] = val
		if val != p.def {
			parts = append(parts, fmt.Sprintf("%s=%d", p.key, val))
		}
	}
	if e.hasDest && dest != mem.L1 {
		parts = append(parts, "dest="+strings.ToLower(dest.String()))
	}
	name := e.name
	if len(parts) > 0 {
		name += ":" + strings.Join(parts, ",")
	}
	return Named{Name: name, Factory: e.build(dest, vals)}
}

// parseLevel reads a dest= value.
func parseLevel(s string) (mem.Level, error) {
	switch s {
	case "l1":
		return mem.L1, nil
	case "l2":
		return mem.L2, nil
	case "l3":
		return mem.L3, nil
	}
	return mem.L1, fmt.Errorf("bad destination %q (want l1, l2 or l3)", s)
}

// resolveAtom builds one non-composite spec: name[:key=v{,key=v}].
func resolveAtom(spec string) (Named, error) {
	name, paramStr, hasParams := strings.Cut(spec, ":")
	e := findEntry(name)
	if e == nil {
		return Named{}, unknownErr(name)
	}
	dest := mem.L1
	vals := map[string]int{}
	if hasParams {
		for _, kv := range strings.Split(paramStr, ",") {
			k, vs, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok || k == "" || vs == "" {
				return Named{}, fmt.Errorf("prefetcher %q: malformed parameter %q (want key=value)", name, kv)
			}
			if k == "dest" {
				if !e.hasDest {
					return Named{}, fmt.Errorf("prefetcher %q does not accept dest=", name)
				}
				var err error
				if dest, err = parseLevel(vs); err != nil {
					return Named{}, fmt.Errorf("prefetcher %q: %w", name, err)
				}
				continue
			}
			def := (*paramDef)(nil)
			for i := range e.params {
				if e.params[i].key == k {
					def = &e.params[i]
					break
				}
			}
			if def == nil {
				return Named{}, fmt.Errorf("prefetcher %q has no parameter %q (accepts %s)", name, k, paramKeys(e))
			}
			n, err := strconv.Atoi(vs)
			if err != nil || n <= 0 {
				return Named{}, fmt.Errorf("prefetcher %q: parameter %s=%q must be a positive integer", name, k, vs)
			}
			vals[k] = n
		}
	}
	return e.named(dest, vals), nil
}

func paramKeys(e *regEntry) string {
	keys := make([]string, 0, len(e.params)+1)
	for _, p := range e.params {
		keys = append(keys, p.key)
	}
	if e.hasDest {
		keys = append(keys, "dest")
	}
	if len(keys) == 0 {
		return "no parameters"
	}
	return strings.Join(keys, ", ")
}

// ByName resolves a prefetcher spec string:
//
//	none                     the no-prefetch baseline
//	<name>                   a registered atom (see List)
//	<name>:k=v{,k=v}         an atom with parameter overrides
//	tpc+<atom>               TPC composited with an extra component
//	shunt+<atom>             TPC and the atom shunted in parallel
//
// Unknown names return an error naming the nearest registered match.
func ByName(spec string) (Named, error) {
	return byName(spec, 0)
}

// Normalize resolves spec and returns its canonical name: defaults elided,
// parameters in registry order, aliases expanded. Two specs describing the
// same configuration normalize to the same string, which is what the
// runner's memo cache keys on. Normalize is idempotent.
func Normalize(spec string) (string, error) {
	n, err := ByName(spec)
	if err != nil {
		return "", err
	}
	return n.Name, nil
}

// maxCompositeDepth bounds tpc+/shunt+ nesting so an adversarial spec
// (tpc+tpc+tpc+...) cannot drive unbounded recursion.
const maxCompositeDepth = 8

func byName(spec string, depth int) (Named, error) {
	spec = strings.ToLower(strings.TrimSpace(spec))
	if spec == "" || spec == "none" {
		return Baseline(), nil
	}
	// Exact registered names first, so atoms whose names contain '+'
	// (t2+p1) or '/' (ghb-pc/dc) are not mistaken for composites.
	if e := findEntry(spec); e != nil {
		return e.named(mem.L1, nil), nil
	}
	for _, pre := range []string{"tpc+", "shunt+"} {
		rest, ok := strings.CutPrefix(spec, pre)
		if !ok {
			continue
		}
		if depth+1 > maxCompositeDepth {
			return Named{}, fmt.Errorf("spec %q: composite nesting deeper than %d levels", spec, maxCompositeDepth)
		}
		extra, err := byName(rest, depth+1)
		if err != nil {
			return Named{}, err
		}
		if extra.Factory == nil {
			return Named{}, fmt.Errorf("cannot composite %q with the empty baseline", pre)
		}
		if pre == "tpc+" {
			return TPCWith(extra), nil
		}
		return ShuntWith(extra), nil
	}
	return resolveAtom(spec)
}

// MustByName is ByName for known-good specs; it panics on error.
func MustByName(spec string) Named {
	n, err := ByName(spec)
	if err != nil {
		panic(err)
	}
	return n
}

// unknownErr builds the unknown-name error, suggesting the nearest
// registered name by edit distance.
func unknownErr(name string) error {
	best, bestD := "", 4 // suggest only within edit distance 3
	for _, cand := range allNames() {
		if d := editDistance(name, cand); d < bestD {
			best, bestD = cand, d
		}
	}
	if best != "" {
		return fmt.Errorf("unknown prefetcher %q (did you mean %q?)", name, best)
	}
	return fmt.Errorf("unknown prefetcher %q (run with -list for the registry)", name)
}

func allNames() []string {
	names := []string{"none"}
	for i := range registry {
		names = append(names, registry[i].name)
		names = append(names, registry[i].aliases...)
	}
	return names
}

// editDistance is the Levenshtein distance between two short names.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// Info describes one registry entry for CLI help output and documentation
// generation.
type Info struct {
	Name    string
	Aliases []string
	Desc    string
	// Spec is the normalized spec string for the all-defaults configuration —
	// what Normalize returns for the entry's name, and what the runner's memo
	// cache and the persistent store key on.
	Spec string
	// Arity is the number of cooperating prefetch components the entry
	// instantiates: 1 for monolithic prefetchers and t2 alone, 2 for t2+p1,
	// 3 for the full tpc composite.
	Arity int
	// Params lists the accepted knobs as "key=default" strings ("dest=l1"
	// included when the destination is overridable).
	Params []string
}

// List enumerates the registry (atoms only; composites are spelled
// tpc+<name> / shunt+<name>). Sorted mono lineup first, then the rest in
// registration order.
func List() []Info {
	out := make([]Info, 0, len(registry))
	for i := range registry {
		e := &registry[i]
		inf := Info{
			Name: e.name, Aliases: append([]string(nil), e.aliases...), Desc: e.desc,
			Spec: e.named(mem.L1, nil).Name, Arity: max(e.arity, 1),
		}
		for _, p := range e.params {
			inf.Params = append(inf.Params, fmt.Sprintf("%s=%d", p.key, p.def))
		}
		if e.hasDest {
			inf.Params = append(inf.Params, "dest=l1")
		}
		out = append(out, inf)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return findEntry(out[i].Name).mono && !findEntry(out[j].Name).mono
	})
	return out
}

// MarkdownTable renders the registry as a GitHub-flavored markdown table.
// README.md's prefetcher table is this output verbatim (between the
// PREFETCHER TABLE markers); a sim test keeps the two in sync.
func MarkdownTable() string {
	var b strings.Builder
	b.WriteString("| spec | aliases | components | parameters (defaults) | description |\n")
	b.WriteString("|------|---------|------------|-----------------------|-------------|\n")
	for _, inf := range List() {
		aliases, params := "—", "—"
		if len(inf.Aliases) > 0 {
			aliases = "`" + strings.Join(inf.Aliases, "`, `") + "`"
		}
		if len(inf.Params) > 0 {
			params = "`" + strings.Join(inf.Params, "`, `") + "`"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %d | %s | %s |\n",
			inf.Spec, aliases, inf.Arity, params, inf.Desc)
	}
	return b.String()
}

// Monolithic returns the paper's seven comparison prefetchers in Table II
// order, all prefetching into L1 (the paper's best-performing destination).
func Monolithic() []Named {
	var out []Named
	for i := range registry {
		if registry[i].mono {
			out = append(out, registry[i].named(mem.L1, nil))
		}
	}
	return out
}

// TPCFull returns the composite T2+P1+C1 configuration.
func TPCFull() Named { return MustByName("tpc") }

// TPCWith returns TPC composited with an extra existing prefetcher
// (Sec. IV-E / Fig. 15 "compositing").
func TPCWith(extra Named) Named {
	return Named{Name: "tpc+" + extra.Name, Factory: func(inst workloads.Instance) prefetch.Component {
		opts := tpc.DefaultOptions(inst.Memory())
		opts.Extras = []prefetch.Component{extra.Factory(inst)}
		return tpc.New(opts)
	}}
}

// ShuntWith returns TPC shunted with an extra prefetcher: both run in
// parallel with no coordination (Fig. 15 "shunting").
func ShuntWith(extra Named) Named {
	return Named{Name: "shunt+" + extra.Name, Factory: func(inst workloads.Instance) prefetch.Component {
		return prefetch.NewShunt(
			tpc.New(tpc.DefaultOptions(inst.Memory())),
			extra.Factory(inst),
		)
	}}
}

// AllEvaluated returns the paper's full Fig. 8 lineup: seven monolithic
// prefetchers plus TPC.
func AllEvaluated() []Named {
	return append(Monolithic(), TPCFull())
}
