package policy

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// KindSeries is the series-connected P4LRU deployment (§3.2) as a Spec kind.
// It is not a NewForMemory kind — the series has an extra shape parameter
// (levels) — so it lives here, in the Spec layer, where shape parameters
// have a home.
const KindSeries Kind = "series"

// Spec is the declarative form of a policy configuration: everything needed
// to construct a Cache, in one value with a parseable string form. It is the
// single construction entry point the CLIs, the experiments and the serving
// engine share — NewFromSpec replaces the per-caller NewForMemory plumbing.
//
// The string form is "kind" or "kind:key=value,key=value,...", e.g.
//
//	p4lru3:mem=1MiB,seed=7
//	series:levels=4,mem=400KiB
//	timeout:mem=256KiB,timeout=50ms
//
// Keys: mem (bytes, or with B/KiB/MiB/GiB suffix), seed, levels and unitcap
// (series only), timeout (Go duration), lambda (elastic vote ratio).
// Merge cannot be spelled in a string — set it programmatically after
// parsing (it is a function).
type Spec struct {
	// Kind names the policy: any NewForMemory Kind, or KindSeries.
	Kind Kind
	// MemBytes is the total memory budget (0 = DefaultMemBytes).
	MemBytes int
	// Levels is the series-connection depth (series only; 0 = 4, the
	// paper's LruIndex deployment).
	Levels int
	// UnitCap is the per-unit capacity for series (0 = 3, i.e. P4LRU3).
	UnitCap int
	// Seed selects the hash family member and policy randomness.
	Seed uint64
	// TimeoutThreshold is the timeout policy's expiry (0 = NewForMemory's
	// 100ms default).
	TimeoutThreshold time.Duration
	// ElasticLambda is the elastic policy's eviction vote ratio (0 = 8).
	ElasticLambda uint32
	// Merge is applied on hits (nil = replace). Not representable in the
	// string form.
	Merge MergeFunc
}

// DefaultMemBytes is the memory budget a Spec gets when none is given —
// the 400KiB mid-sweep point the CLIs default to.
const DefaultMemBytes = 400 * 1024

// ParseSpec parses the string form documented on Spec. Unset keys are left
// zero so callers can layer their own defaults before NewFromSpec applies
// the global ones.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	kind, params, _ := strings.Cut(strings.TrimSpace(s), ":")
	kind = strings.TrimSpace(kind)
	if kind == "" {
		return spec, fmt.Errorf("policy: empty spec %q", s)
	}
	spec.Kind = Kind(kind)
	if params == "" {
		return spec, nil
	}
	for _, kv := range strings.Split(params, ",") {
		key, val, ok := strings.Cut(kv, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !ok || val == "" {
			return spec, fmt.Errorf("policy: spec %q: bad parameter %q (want key=value)", s, kv)
		}
		var err error
		switch key {
		case "mem":
			spec.MemBytes, err = parseMemBytes(val)
		case "seed":
			spec.Seed, err = strconv.ParseUint(val, 0, 64)
		case "levels":
			spec.Levels, err = strconv.Atoi(val)
		case "unitcap":
			spec.UnitCap, err = strconv.Atoi(val)
		case "timeout":
			spec.TimeoutThreshold, err = time.ParseDuration(val)
		case "lambda":
			var v uint64
			v, err = strconv.ParseUint(val, 10, 32)
			spec.ElasticLambda = uint32(v)
		default:
			return spec, fmt.Errorf("policy: spec %q: unknown parameter %q", s, key)
		}
		if err != nil {
			return spec, fmt.Errorf("policy: spec %q: parameter %q: %v", s, key, err)
		}
	}
	return spec, nil
}

// parseMemBytes parses a memory size: a bare byte count or a count with a
// B/KiB/MiB/GiB suffix (also accepting the loose K/M/G shorthands).
func parseMemBytes(s string) (int, error) {
	mult := 1
	num := s
	for _, suf := range []struct {
		name string
		mult int
	}{
		{"GiB", 1 << 30}, {"MiB", 1 << 20}, {"KiB", 1 << 10},
		{"G", 1 << 30}, {"M", 1 << 20}, {"K", 1 << 10}, {"B", 1},
	} {
		if strings.HasSuffix(s, suf.name) {
			mult = suf.mult
			num = strings.TrimSuffix(s, suf.name)
			break
		}
	}
	n, err := strconv.Atoi(strings.TrimSpace(num))
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("negative size %q", s)
	}
	return n * mult, nil
}

// String renders the spec in the parseable form (omitting zero-valued keys
// and the unspellable Merge). ParseSpec(spec.String()) round-trips every
// string-representable field.
func (s Spec) String() string {
	var parts []string
	if s.MemBytes != 0 {
		parts = append(parts, "mem="+formatMemBytes(s.MemBytes))
	}
	if s.Levels != 0 {
		parts = append(parts, fmt.Sprintf("levels=%d", s.Levels))
	}
	if s.UnitCap != 0 {
		parts = append(parts, fmt.Sprintf("unitcap=%d", s.UnitCap))
	}
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	if s.TimeoutThreshold != 0 {
		parts = append(parts, "timeout="+s.TimeoutThreshold.String())
	}
	if s.ElasticLambda != 0 {
		parts = append(parts, fmt.Sprintf("lambda=%d", s.ElasticLambda))
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return string(s.Kind)
	}
	return string(s.Kind) + ":" + strings.Join(parts, ",")
}

// formatMemBytes renders a byte count with the largest exact binary suffix.
func formatMemBytes(n int) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGiB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return strconv.Itoa(n)
	}
}

// SeriesMemBytes returns the memory budget that makes NewFromSpec build a
// series of exactly `units` units per level — the inverse of the cost model
// above, for callers (and deprecated shims) that think in unit counts
// rather than bytes. Zero levels/unitCap get the spec defaults (4 and 3).
func SeriesMemBytes(levels, unitCap, units int) int {
	if levels <= 0 {
		levels = 4
	}
	if unitCap <= 0 {
		unitCap = 3
	}
	if units < 1 {
		units = 1
	}
	return levels * units * (unitCap*bytesPerEntryKV + bytesPerUnitMeta)
}

// SeriesLevels is the level count of the series cache s describes, with
// the default applied: the largest 1-based level Token that cache issues.
// It is 0 for every other kind, whose caches issue only NoToken.
func (s Spec) SeriesLevels() int {
	switch {
	case s.Kind != KindSeries:
		return 0
	case s.Levels == 0:
		return 4
	}
	return s.Levels
}

// NewFromSpec constructs the cache a Spec describes. Zero-valued fields get
// defaults: DefaultMemBytes of memory, 4 levels and unit capacity 3 for
// series, NewForMemory's timeout/lambda defaults for the baselines.
func NewFromSpec(s Spec) (Cache, error) {
	if s.Kind == "" {
		return nil, fmt.Errorf("policy: spec has no kind")
	}
	mem := s.MemBytes
	if mem == 0 {
		mem = DefaultMemBytes
	}
	if mem < 16 {
		return nil, fmt.Errorf("policy: memory budget %dB too small", mem)
	}
	if s.Kind == KindSeries {
		levels := s.SeriesLevels()
		unitCap := s.UnitCap
		if unitCap == 0 {
			unitCap = 3
		}
		if levels < 1 || unitCap < 1 {
			return nil, fmt.Errorf("policy: series spec with levels=%d unitcap=%d", levels, unitCap)
		}
		// Same cost model as NewForMemory's p4lruN entry: N×(key+val) per
		// unit plus one state byte, split evenly across the levels.
		units := mem / levels / (unitCap*bytesPerEntryKV + bytesPerUnitMeta)
		if units < 1 {
			units = 1
		}
		// Unit capacities with flat cores (2, 3, 4 — all the data-plane
		// widths) get the seqlock series; NewSeriesUnitCap remains the
		// generic oracle, and serves the odd capacities.
		switch unitCap {
		case 2, 3, 4:
			return NewFlatSeries(unitCap, levels, units, s.Seed, s.Merge), nil
		}
		return NewSeriesUnitCap(unitCap, levels, units, s.Seed, s.Merge), nil
	}
	if s.Levels != 0 || s.UnitCap != 0 {
		return nil, fmt.Errorf("policy: levels/unitcap only apply to kind %q, not %q", KindSeries, s.Kind)
	}
	switch s.Kind {
	case KindP4LRU1, KindP4LRU2, KindP4LRU3, KindP4LRU4, KindIdeal,
		KindTimeout, KindElastic, KindCoco, KindClock:
	default:
		return nil, fmt.Errorf("policy: unknown kind %q", s.Kind)
	}
	return NewForMemory(s.Kind, mem, Options{
		Merge:            s.Merge,
		TimeoutThreshold: s.TimeoutThreshold,
		ElasticLambda:    s.ElasticLambda,
		Seed:             s.Seed,
	}), nil
}

// MustFromSpec is NewFromSpec for statically known specs (the experiment
// tables); it panics on error.
func MustFromSpec(s Spec) Cache {
	c, err := NewFromSpec(s)
	if err != nil {
		panic(err)
	}
	return c
}
