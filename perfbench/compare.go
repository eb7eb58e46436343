package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// The two tools read the result files runs leave in
// .bench_build/perfbench/results (or any directories of them):
//
//	perfbench stats DIR...      median and spread of every metric, per workload
//	perfbench compare BASE NEW  BASE's runs against NEW's, judged by BENCHMARK.json
//
// compare exits 1 when an end-to-end metric got worse by more than its
// bound on some workload.

func toolMain(cmd string, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	switch {
	case cmd == "stats" && fs.NArg() >= 1:
		files, err := readResults(fs.Args())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		printStats(stdout, sp, files)
		return 0
	case cmd == "compare" && fs.NArg() == 2:
		base, err := readResults(fs.Args()[:1])
		if err == nil {
			var next []resultFile
			next, err = readResults(fs.Args()[1:])
			if err == nil {
				vs := compareRuns(sp, base, next)
				printVerdicts(stdout, vs)
				for _, v := range vs {
					if v.Status == statusRegression {
						return 1
					}
				}
				return 0
			}
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "usage: perfbench stats DIR... | perfbench compare BASE NEW\n")
	return 2
}

// readResults loads every result file in the given directories.
func readResults(dirs []string) ([]resultFile, error) {
	var out []resultFile
	for _, dir := range dirs {
		paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			var rf resultFile
			if err := json.Unmarshal(data, &rf); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			out = append(out, rf)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result files in %v", dirs)
	}
	return out, nil
}

// series collects one metric's values over the runs of one workload, in
// seed order so that BASE and NEW runs pair up by seed.
func series(files []resultFile, name string, traced int, metric string) []float64 {
	var fs []resultFile
	for _, f := range files {
		if f.Workload == name && f.Trace == traced {
			if _, ok := f.Result.Metrics[metric]; ok {
				fs = append(fs, f)
			}
		}
	}
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].Provenance.Seed < fs[j].Provenance.Seed })
	var xs []float64
	for _, f := range fs {
		xs = append(xs, f.Result.Metrics[metric].Value)
	}
	return xs
}

func printStats(w io.Writer, sp *spec, files []resultFile) {
	for _, wl := range sp.Workloads {
		for traced, list := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
			runs, failed := 0, 0
			for _, f := range files {
				if f.Workload == wl.Name && f.Trace == traced {
					runs++
					failed += f.Result.Failed
				}
			}
			if runs == 0 {
				continue
			}
			fmt.Fprintf(w, "%s trace=%d: %d runs, %d failed operations\n", wl.Name, traced, runs, failed)
			for _, m := range list {
				xs := series(files, wl.Name, traced, m.Name)
				q1, q2, q3 := quartiles(xs)
				note := ""
				if m.Bound > 0 && m.Name != "setup_s" {
					switch s := spread(xs); {
					case s > m.Bound:
						note = "  SPREAD ABOVE BOUND"
					case s > m.Bound/3:
						note = "  spread above bound/3"
					}
				}
				fmt.Fprintf(w, "  %-28s n=%-3d median=%-14.6g q1=%-14.6g q3=%-14.6g spread=%.4f%s\n",
					m.Name, len(xs), q2, q1, q3, spread(xs), note)
			}
		}
	}
}

const (
	statusRegression = "REGRESSION"
	statusImproved   = "improved"
	statusUnresolved = "unresolved"
	statusSame       = "within bound"
	statusChanged    = "changed"
)

// verdict is the comparison of one metric on one workload.
type verdict struct {
	Workload, Metric string
	Base, New        float64 // medians
	// Worse is the change as a share of the base median, signed so that a
	// positive value is a change for the worse.
	Worse  float64
	Bound  float64
	Status string
}

// compareRuns judges NEW against BASE. For each end-to-end metric and
// workload: worse than BASE's median by more than the bound is a
// regression; when BASE's own spread exceeds the bound the metric is
// unresolved unless every NEW run beats every BASE run; a gain needs NEW to
// win nine tenths of the seed-paired runs and the medians to differ by more
// than BASE's interquartile range. Per-layer metrics have no bound and are
// reported only when they changed.
func compareRuns(sp *spec, base, next []resultFile) []verdict {
	var out []verdict
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			b, n := series(base, wl.Name, 0, m.Name), series(next, wl.Name, 0, m.Name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			v := judge(m, b, n)
			v.Workload = wl.Name
			out = append(out, v)
		}
		for _, m := range sp.PerLayer {
			b, n := series(base, wl.Name, 1, m.Name), series(next, wl.Name, 1, m.Name)
			if len(b) == 0 || len(n) == 0 || median(b) == median(n) {
				continue
			}
			v := verdict{Workload: wl.Name, Metric: m.Name, Base: median(b), New: median(n), Status: statusChanged}
			v.Worse = worseShare(m.Better, v.Base, v.New)
			out = append(out, v)
		}
	}
	return out
}

func judge(m metricSpec, b, n []float64) verdict {
	v := verdict{Metric: m.Name, Base: median(b), New: median(n), Bound: m.Bound}
	v.Worse = worseShare(m.Better, v.Base, v.New)
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	bq1, _, bq3 := quartiles(b)
	// Every NEW run beats every BASE run: NEW's worst beats BASE's best.
	allBetter := better(minMax(n, m.Better != "higher"), minMax(b, m.Better == "higher"))
	wins, pairs := 0, len(b)
	if len(n) < pairs {
		pairs = len(n)
	}
	for i := 0; i < pairs; i++ {
		if better(n[i], b[i]) {
			wins++
		}
	}
	switch {
	case v.Worse > m.Bound:
		v.Status = statusRegression
	case spread(b) > m.Bound && !allBetter:
		v.Status = statusUnresolved
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(v.New-v.Base) > bq3-bq1:
		v.Status = statusImproved
	default:
		v.Status = statusSame
	}
	return v
}

// worseShare is (new - base) / base for lower-is-better metrics and the
// opposite for higher-is-better ones.
func worseShare(better string, base, next float64) float64 {
	if base == 0 {
		return 0
	}
	d := (next - base) / math.Abs(base)
	if better == "higher" {
		return -d
	}
	return d
}

// minMax returns the minimum of xs, or the maximum when max is set.
func minMax(xs []float64, max bool) float64 {
	s := sorted(xs)
	if max {
		return s[len(s)-1]
	}
	return s[0]
}

func printVerdicts(w io.Writer, vs []verdict) {
	for _, v := range vs {
		bound := ""
		if v.Bound > 0 {
			bound = fmt.Sprintf(" (bound %.2f)", v.Bound)
		}
		fmt.Fprintf(w, "%-12s %-28s base=%-14.6g new=%-14.6g worse=%+.4f%s  %s\n",
			v.Workload, v.Metric, v.Base, v.New, v.Worse, bound, v.Status)
	}
}
