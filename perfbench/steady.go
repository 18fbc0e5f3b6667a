package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness command
// reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady runs one workload N times, each run its own process with its
// own seed, and prints for each end-to-end metric the median and the
// interquartile range as a share of the median, against the metric's
// bound in BENCHMARK.json.
func steady(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ExitOnError)
	name := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 10, "number of runs")
	first := fs.Int64("seed", 1, "seed of the first run; run k uses seed+k")
	seconds := fs.String("seconds", "10", "--seconds of each run")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "file holding the metrics' bounds")
	_ = fs.Parse(args)
	if _, ok := specByName(*name); !ok || *runs < 1 {
		fmt.Fprintln(os.Stderr, "perfbench steady: need --workload ingest|wire|churn and --runs >= 1")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", *benchPath, err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return 1
	}
	values := map[string][]float64{}
	var failedShares []string
	for k := 0; k < *runs; k++ {
		seed := strconv.FormatInt(*first+int64(k), 10)
		cmd := exec.Command(self, "--workload", *name, "--seed", seed, "--seconds", *seconds, "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench steady: run with seed %s: %v\n", seed, err)
			return 1
		}
		var res output
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench steady: run with seed %s printed no result: %v\n", seed, err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "perfbench steady: run with seed %s is not correct\n", seed)
			return 1
		}
		failedShares = append(failedShares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		fmt.Fprintf(os.Stderr, "seed %s:", seed)
		for _, m := range bf.EndToEnd {
			v, ok := res.Metrics[m.Name]
			if !ok {
				fmt.Fprintf(os.Stderr, "\nperfbench steady: run with seed %s did not print %s\n", seed, m.Name)
				return 1
			}
			values[m.Name] = append(values[m.Name], v.Value)
			fmt.Fprintf(os.Stderr, " %s=%.4g", m.Name, v.Value)
		}
		fmt.Fprintln(os.Stderr)
	}
	fmt.Printf("%s, %d runs; failed/attempted per run: %v\n", *name, *runs, failedShares)
	fmt.Printf("%-24s %14s %10s %10s %10s\n", "metric", "median", "IQR/med", "bound", "IQR<bound/3")
	ok := true
	for _, m := range bf.EndToEnd {
		vs := values[m.Name]
		med := median(vs)
		q := quartiles(vs)
		spread := (q[2] - q[0]) / med
		within := spread < m.Bound/3
		if !within && m.Name != "setup_s" {
			ok = false
		}
		fmt.Printf("%-24s %14.4f %10.4f %10.4f %10v\n", m.Name, med, spread, m.Bound, within)
	}
	if !ok {
		return 3
	}
	return 0
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) with its
// default exclusive method. It needs at least two values.
func quartiles(values []float64) [3]float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	var out [3]float64
	ld := len(d)
	if ld < 2 {
		for i := range out {
			out[i] = d[0]
		}
		return out
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out
}
