package main

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/asciiplot"
	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/obs"
	"github.com/p4lru/p4lru/internal/obs/span"
)

// This file is the replay command's live UI: a one-line progress ticker
// (default) and the -console full-screen ops dashboard. Both read only
// shared-safe state — atomic counters, registry snapshots, engine stats and
// tracer ring snapshots — so they never perturb the replay workers beyond
// the snapshot cost itself.

// fmtDur renders a duration histogram's quantile compactly; "-" when the
// histogram saw nothing.
func fmtDur(h obs.HistogramSnapshot, q float64) string {
	if h.Count == 0 {
		return "-"
	}
	return time.Duration(h.Quantile(q)).Round(time.Microsecond).String()
}

// startProgress runs the default one-line ticker on stderr: packet count,
// interval throughput, live hit ratio, and the last interval's p99 miss
// latency. The returned func stops the ticker and terminates the line.
func startProgress(reg *obs.Registry, hits, queries *atomic.Uint64, start time.Time) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var prevQ uint64
		prevT := start
		var prevMiss obs.HistogramSnapshot
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				q, h := queries.Load(), hits.Load()
				dt := now.Sub(prevT).Seconds()
				rate := float64(q-prevQ) / dt / 1e6
				prevQ, prevT = q, now

				hitPct := 0.0
				if q > 0 {
					hitPct = 100 * float64(h) / float64(q)
				}
				missP99 := "-"
				if reg != nil {
					// The last interval only: Sub the previous frame's
					// snapshot from a copy, keeping cur as the next base.
					cur := reg.Snapshot().Histograms["backing_miss_latency_seconds"]
					d := cur
					d.Counts = slices.Clone(cur.Counts)
					d.Sub(&prevMiss)
					missP99 = fmtDur(d, 0.99)
					prevMiss = cur
				}
				fmt.Fprintf(os.Stderr,
					"\rreplay: %6.2fM pkts  %6.2fM pkt/s  hit %5.1f%%  p99 miss %-10s",
					float64(q)/1e6, rate, hitPct, missP99)
			}
		}
	}()
	return func() {
		close(stop)
		<-done
		fmt.Fprintln(os.Stderr)
	}
}

// queueGlyphs renders one shade glyph per shard by queue fullness — the
// per-shard heatmap row of the console.
var queueShades = []rune("▁▂▃▄▅▆▇█")

func queueGlyphs(stats []engine.ShardStats) string {
	var b strings.Builder
	for _, s := range stats {
		frac := 0.0
		if s.QueueCap > 0 {
			frac = float64(s.QueueLen) / float64(s.QueueCap)
		}
		i := int(frac * float64(len(queueShades)))
		if i >= len(queueShades) {
			i = len(queueShades) - 1
		}
		b.WriteRune(queueShades[i])
	}
	return b.String()
}

// consoleStages is the display order of the stage table.
var consoleStages = []span.Stage{
	span.StageDecode, span.StageQueue, span.StageApply, span.StageQuery,
	span.StageMiss, span.StageFetch, span.StageWire,
}

// startConsole runs the full-screen live dashboard on stderr: run header,
// per-shard queue-depth heatmap, per-stage p50/p99 (per-interval histogram
// deltas), a throughput sparkline, quantiles over the tracer's captured
// ops, and the current slowest waterfalls. The returned func stops it and
// leaves the last frame on screen.
func startConsole(eng *engine.Engine, tracer *span.Tracer, reg *obs.Registry,
	hits, queries *atomic.Uint64, start time.Time) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var prevQ uint64
		prevT := start
		prevStage := map[span.Stage]obs.HistogramSnapshot{}
		// Quantiles over every op the tracer captures (tail + uniform).
		captures := obs.NewHistogram(obs.UnitSeconds)
		var lastCapID uint64
		var xs, ys []float64             // throughput sparkline, last 60 frames
		fmt.Fprint(os.Stderr, "\033[2J") // clear once; frames repaint from home
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				q, h := queries.Load(), hits.Load()
				dt := now.Sub(prevT).Seconds()
				rate := float64(q-prevQ) / dt / 1e6
				prevQ, prevT = q, now
				hitPct := 0.0
				if q > 0 {
					hitPct = 100 * float64(h) / float64(q)
				}

				var b strings.Builder
				fmt.Fprintf(&b, "p4lru replay · %v elapsed · %.2fM pkts · %.2fM pkt/s · hit %.1f%%\n",
					time.Since(start).Round(time.Second), float64(q)/1e6, rate, hitPct)

				stats := eng.Stats()
				fmt.Fprintf(&b, "\nshard queues (%d shards, ▁=empty █=full)\n  %s\n",
					len(stats), queueGlyphs(stats))

				if reg != nil {
					snap := reg.Snapshot()
					fmt.Fprintf(&b, "\n%-12s %12s %12s\n", "stage", "p50", "p99")
					for _, st := range consoleStages {
						cur := snap.Histograms[`span_stage_seconds{stage="`+st.String()+`"}`]
						d, prev := cur, prevStage[st]
						d.Counts = slices.Clone(cur.Counts)
						d.Sub(&prev)
						prevStage[st] = cur
						fmt.Fprintf(&b, "%-12s %12s %12s\n", st.String(), fmtDur(d, 0.50), fmtDur(d, 0.99))
					}
				}

				if tracer != nil {
					recorded, captured := tracer.Stats()
					recs := tracer.Snapshot()
					// Feed each newly captured record into the estimators
					// exactly once (IDs are the capture sequence).
					maxSeen := lastCapID
					for _, rec := range recs {
						if rec.ID <= lastCapID {
							continue
						}
						if rec.ID > maxSeen {
							maxSeen = rec.ID
						}
						captures.Observe(rec.Total)
					}
					lastCapID = maxSeen
					slowest := recs
					if len(slowest) > 3 {
						top := append([]span.Record(nil), recs...)
						for i := 0; i < 3; i++ { // partial selection: top 3 by Total
							for j := i + 1; j < len(top); j++ {
								if top[j].Total > top[i].Total {
									top[i], top[j] = top[j], top[i]
								}
							}
						}
						slowest = top[:3]
					}
					capSnap := captures.Snapshot()
					fmt.Fprintf(&b, "\nspans recorded=%d captured=%d tail>%v · captured p50=%v p99=%v\n",
						recorded, captured, tracer.TailThreshold().Round(time.Microsecond),
						time.Duration(capSnap.Quantile(0.5)).Round(time.Microsecond),
						time.Duration(capSnap.Quantile(0.99)).Round(time.Microsecond))
					fmt.Fprintln(&b, "slowest ops:")
					for _, rec := range slowest {
						fmt.Fprintf(&b, "  %s\n", rec.Waterfall())
					}
				}

				xs = append(xs, time.Since(start).Seconds())
				ys = append(ys, rate)
				if len(xs) > 60 {
					xs, ys = xs[len(xs)-60:], ys[len(ys)-60:]
				}
				if len(xs) >= 2 {
					b.WriteString("\n")
					b.WriteString(asciiplot.Render(
						[]asciiplot.Series{{Name: "Mpkt/s", Xs: xs, Ys: ys}},
						asciiplot.Options{Width: 60, Height: 6, Title: "throughput", XLabel: "seconds"},
					))
				}

				// Home the cursor, paint the frame, clear whatever the
				// previous (possibly taller) frame left below.
				fmt.Fprint(os.Stderr, "\033[H"+b.String()+"\033[J")
			}
		}
	}()
	return func() {
		close(stop)
		<-done
		fmt.Fprintln(os.Stderr)
	}
}
