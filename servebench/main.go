// Command servebench is the serving benchmark of the P4LRU reproduction. It
// drives one named workload through the public API of the serving stack,
// checks every value it reads back, and prints the workload's metrics by
// name and unit, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Workloads:
//
//	wire-lruindex  open-loop Poisson queries over loopback UDP: generator →
//	               netproto.Switch (series P4LRU3 cache) → netproto.Server
//	               (1M-item kvindex B+ tree) and back (§3.2 LruIndex)
//	cluster-hot    closed loop, 2 workers → cluster.Router over 3 in-process
//	               engines (Replicas 2, hot keys on), Zipf(1.2) over 64k keys,
//	               misses through backing.Loader over backing.BTree
//	cluster-churn  the same stack on a CAIDA_n-style flow stream with fast
//	               working-set turnover, 25% updates, evictions drained
//	               through backing.WriteBehind
//
// With --trace 0 the run measures the end-to-end metrics with tracing off.
// With --trace 1 it measures half the window untraced and half traced, and
// prints the per-layer ledger instead: span/obs hooks the program exposes,
// timing wrappers around each layer's public calls, and isolated replays of
// the workload's key stream through single layers. A traced cluster run
// also drives its keys through the wire stack for a few seconds, so every
// workload prices every layer.
//
// BENCHMARK.json gates the two cluster workloads. wire-lruindex is not
// gated: on a shared 2-vCPU guest its open-loop latency moves tenfold with
// the hypervisor's steal, so ten runs never agreed within a 0.25 bound.
//
// Usage:
//
//	servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/p4lru/p4lru/internal/netproto"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef is a reported metric's name and unit.
type metricDef struct{ name, unit string }

// endToEnd names the metrics of an untraced run; every workload prints all
// of them. fail_ratio is not among them: it reads 0 on a healthy run, so it
// is reported with the per-layer rows (and in the result's failed count).
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"goodput_ops", "ops/s"}, {"lat_p50_us", "us"}, {"lat_p99_us", "us"},
	{"hit_ratio", "ratio"}, {"cpu_us_per_op", "us"},
}

// perLayer names the metrics of a traced run. Every workload prints all of
// them; on wire-lruindex the router and backing rows, whose layers are not
// on its path, read 0.
var perLayer = []metricDef{
	// bench: the generator, the run's own tallies and the host.
	{"gen.lag_p50_us", "us"}, {"gen.lag_p99_us", "us"}, {"gen.calm_ratio", "ratio"}, {"gen.sent", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"lat_p999_us", "us"}, {"lat.samples", "count"}, {"fail_ratio", "ratio"}, {"fail.wrong_values", "count"},
	{"host.gomaxprocs", "count"}, {"host.nproc", "count"}, {"host.batched", "bool"}, {"host.steal_ratio", "ratio"},
	// netproto.
	{"wire.rtt_p50_us", "us"}, {"wire.kernel_p50_us", "us"}, {"wire.loopback_rtt_us", "us"},
	{"switch.query_dir_ns", "ns"}, {"switch.query.decode_ns", "ns"}, {"switch.query.lookup_ns", "ns"},
	{"switch.query.forward_ns", "ns"},
	{"switch.reply_dir_ns", "ns"}, {"switch.reply.decode_ns", "ns"}, {"switch.reply.apply_ns", "ns"},
	{"switch.reply.forward_ns", "ns"},
	{"switch.pkts_per_recv", "ratio"},
	{"server.span_ns", "ns"}, {"server.resolve_ns", "ns"}, {"server.pkts_per_recv", "ratio"},
	{"server.walks_per_query", "ratio"}, {"server.nodes_per_walk", "ratio"},
	{"codec.decode_ns", "ns"},
	// engine.
	{"engine.query_ns", "ns"}, {"engine.apply_ns", "ns"}, {"engine.apply_batch_ns_per_op", "ns"},
	{"engine.drops", "count"}, {"engine.occupancy", "ratio"},
	// lru and policy.
	{"lru.query_batch_ns", "ns"}, {"lru.update_batch_ns", "ns"}, {"policy.evict_per_update", "ratio"},
	// cluster.
	{"router.op_ns", "ns"}, {"router.self_ns", "ns"}, {"router.peer_ns", "ns"},
	{"router.peer_calls_per_op", "ratio"}, {"router.fan_reads_per_query", "ratio"},
	{"router.hot_keys", "count"}, {"router.replica_fan_fails", "count"},
	{"router.repairs_queued", "count"}, {"router.hints_parked", "count"},
	// backing.
	{"loader.get_p50_us", "us"}, {"loader.get_p99_us", "us"}, {"loader.coalesced_ratio", "ratio"},
	{"loader.retries", "count"}, {"btree.nodes_per_walk", "ratio"},
	{"writebehind.offered", "count"}, {"writebehind.dropped", "count"}, {"writebehind.depth_max", "count"},
	// Σ layer rows against the end-to-end op time.
	{"ledger.residual_ratio", "ratio"},
}

// ledgerTolerance bounds |ledger.residual_ratio| on every workload: the
// layer rows must explain the end-to-end op time to within this share.
const ledgerTolerance = 0.5

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
}

// report collects one run's metrics and verdicts.
type report struct {
	metrics    map[string]metric
	notes      []string // human-readable lines printed before the result
	setupTimes []float64
	attempted  int64
	failed     int64
	wrong      int64    // values that did not match what was stored
	invalid    []string // reasons the measurement cannot be trusted
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric; note, when non-empty, is printed beside it (the
// sample count behind a percentile).
func (r *report) set(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	line := fmt.Sprintf("%-30s %14.4f %s", name, v, unit)
	if note != "" {
		line += "  (" + note + ")"
	}
	r.notes = append(r.notes, line)
}

// account adds a window's op tallies.
func (r *report) account(attempted, failed, wrong int64) {
	r.attempted += attempted
	r.failed += failed
	r.wrong += wrong
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig, *report) error{
	"wire-lruindex": runWire,
	"cluster-hot":   runClusterHot,
	"cluster-churn": runClusterChurn,
}

// hostInfo describes the machine a result was measured on.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Batched    bool   `json:"batched"`
	Transport  string `json:"transport"`
}

func host() hostInfo {
	return hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Batched:    netproto.Batched(),
		Transport:  "loopback",
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuStat returns the host's cumulative steal and total CPU ticks from the
// first line of /proc/stat (zeros where it cannot be read). On a shared
// virtual machine the steal share explains a run whose numbers moved while
// the program did not.
func cpuStat() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one benchmark invocation, printing to stdout, and returns
// the process exit code: 0 for a correct, valid run, 1 for a wrong value,
// an invalid measurement or a failure, 2 for bad arguments.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: wire-lruindex, cluster-hot or cluster-churn")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "servebench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	h := host()
	hb, _ := json.Marshal(h) // strings, numbers and a bool always marshal
	fmt.Fprintf(stdout, "host %s\n", hb)

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep := newReport()
	steal0, total0 := cpuStat()
	if err := runner(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %s: %v\n", *name, err)
		return 1
	}
	steal1, total1 := cpuStat()
	steal := ratio(float64(steal1-steal0), float64(total1-total0))
	if cfg.trace {
		rep.set("host.gomaxprocs", float64(h.GOMAXPROCS), "count", "")
		rep.set("host.nproc", float64(h.NProc), "count", "")
		rep.set("host.batched", b2f(h.Batched), "bool", "")
		rep.set("host.steal_ratio", steal, "ratio", "CPU time the hypervisor gave to other guests")
	} else {
		rep.notef("host steal %.1f%% of CPU time during the run", 100*steal)
	}

	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	out := result{
		Correct:   rep.wrong == 0 && len(rep.invalid) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range want {
		v, ok := rep.metrics[m.name]
		if !ok || v.Unit != m.unit {
			fmt.Fprintf(os.Stderr, "servebench: %s did not measure %s in %s\n", *name, m.name, m.unit)
			return 1
		}
		out.Metrics[m.name] = v
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, why := range rep.invalid {
		fmt.Fprintf(stdout, "INVALID: %s\n", why)
	}
	if rep.wrong > 0 {
		fmt.Fprintf(stdout, "WRONG VALUES: %d\n", rep.wrong)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// since is a monotonic nanosecond clock relative to base.
func since(base time.Time) int64 { return int64(time.Since(base)) }

// latWindow is how many consecutive latency samples one percentile window
// holds: enough for ten beyond the p99.
const latWindow = 1000

// reportLatency sets lat_p50_us and lat_p99_us: the median over windows of
// latWindow consecutive samples (those keep allows, all when nil) of each
// window's percentile, with the sample count.
func reportLatency(rep *report, lat samples, keep []bool, how string) {
	for _, q := range []struct {
		name string
		q    float64
	}{{"lat_p50_us", 0.50}, {"lat_p99_us", 0.99}} {
		v, wins := windowedPct(lat, latWindow, q.q, keep)
		rep.set(q.name, v/1e3, "us", fmt.Sprintf("n=%d, %s, median of %d windows of %d", len(lat), how, wins, latWindow))
	}
}
