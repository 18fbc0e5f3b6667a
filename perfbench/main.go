// Command perfbench is the repository benchmark: it drives the public
// ps2stream API from one load-generator goroutine on one of three
// workloads (ingest, wire, churn), checks every delivery against a
// reference matcher of its own, and prints one JSON result line.
//
//	perfbench --workload ingest --seed 1 --seconds 10 --trace 0
//	perfbench steady --workload churn --runs 10 --seconds 10
//
// With --trace 1 the run also reads the program's /statsz and times the
// layers' public functions, and prints the per-layer metrics instead of
// the end-to-end ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: ingest, wire or churn")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 24, "measured seconds per run, split over three rounds and their phases")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	_ = fs.Parse(os.Args[1:])
	sp, ok := specByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload ingest|wire|churn, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	var tr *tracer
	if *trace == 1 {
		tr = &tracer{}
	}
	res, err := runWorkload(sp, *seed, *seconds, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	report(sp, res, tr)
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// report prints the run's details to stderr and the result line to
// stdout.
func report(sp spec, res *result, tr *tracer) {
	c := res.check
	e := os.Stderr
	fmt.Fprintf(e, "workload %s: set-ups %.3f s, capacity segments %.0f ops/s over %d ops\n", sp.name, res.setupS, res.capacity, res.capOps)
	lat := map[string]float64{}
	for _, ph := range []struct {
		name string
		p    *phase
	}{{"nominal", &res.nominal}, {"high", &res.high}} {
		p50, p99, p999 := ph.p.latency()
		lat[ph.name] = p50
		fmt.Fprintf(e, "%s: %.0f ops/s, %d ops, %d latency samples, p50 %.3f ms, p99 %.3f ms, p999 %.3f ms, cpu segments %.2f us/op, generator late by at most %.3f ms\n",
			ph.name, ph.p.rate, ph.p.ops, len(ph.p.lats), p50, p99, p999, ph.p.cpu, float64(ph.p.lateMax.Microseconds())/1e3)
	}
	fmt.Fprintf(e, "check: %d publishes, %d failed; reorder: %d publishes (%d missing, %d extra pairs); top-k: %d checked, %d failed\n",
		c.messages, c.failed, c.reorder, c.reorderMissing, c.reorderExtra, c.topKChecked, c.topKFailed)
	fmt.Fprintf(e, "top-k events: %d; peak RSS %.1f MB; check took %.2f s\n", res.topKEvents, res.rssMB, c.refSeconds)
	if c.firstFailure != "" {
		fmt.Fprintln(e, "first failure:", c.firstFailure)
	}
	correct := c.fault == "" && res.subscribeErr == nil
	if c.fault != "" {
		fmt.Fprintln(e, "harness fault:", c.fault)
	}
	if res.subscribeErr != nil {
		fmt.Fprintln(e, "subscription refused:", res.subscribeErr)
	}
	out := output{Correct: correct, Attempted: res.attempted, Failed: c.failed}
	if tr == nil {
		out.Metrics = map[string]metric{
			"setup_s":                {median(res.setupS), "s"},
			"capacity_ops_s":         {median(res.capacity), "ops/s"},
			"nominal.latency_p50_ms": {lat["nominal"], "ms"},
			"nominal.cpu_us_per_op":  {median(res.nominal.cpu), "us"},
			"high.latency_p50_ms":    {lat["high"], "ms"},
			"high.cpu_us_per_op":     {median(res.high.cpu), "us"},
			"peak_rss_mb":            {res.rssMB, "MB"},
		}
	} else {
		var err error
		if out.Metrics, err = tr.metrics(res); err != nil {
			fmt.Fprintln(e, "perfbench: traced run:", err)
			os.Exit(1)
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(e, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
