// Command perfbench is the repository's benchmark. It runs one workload
// against the simulator's public API from a single process, checks every
// output it produces, and prints one JSON result line.
//
//	perfbench --workload paper_suite --seed 20210531 --seconds 20 --trace 0
//	perfbench stats DIR            # median and spread of saved results
//	perfbench compare BASE NEW     # flag changes beyond BENCHMARK.json bounds
//
// Run it from the repository root, where BENCHMARK.json (metric names,
// units and bounds) and results_full.txt (the golden output) live;
// perfbench/run.sh builds it from source and does exactly that.
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json; its times are scaled to a reference host speed by a
// calibration kernel timed between the program's calls (calib.go). With --trace 1 it carries the per-layer metrics: layer
// microbenchmarks and one pass of each other workload first, then half the
// time untraced and half with a CPU profile and in-memory spans, whose
// ratio is the tracing overhead. See README.md for what each workload and
// metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// spec is the part of BENCHMARK.json perfbench reads: the single list of
// workload and metric names it reports and the comparator judges.
type spec struct {
	Workloads []workSpec   `json:"workloads"`
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

type workSpec struct {
	Name string `json:"name"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metricValue is one reported figure, in the result line's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is the full record of one invocation, written beside the
// spans: the result line plus provenance, every sample series with its
// count, the exact counts, and the first failures.
type resultFile struct {
	Workload   string             `json:"workload"`
	Trace      int                `json:"trace"`
	Provenance provenance         `json:"provenance"`
	Result     resultLine         `json:"result"`
	Samples    map[string]summary `json:"samples"`
	Counts     map[string]uint64  `json:"counts"`
	Failures   []string           `json:"failures,omitempty"`
}

const outDir = ".bench_build/perfbench"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "stats", "compare":
			os.Exit(toolMain(os.Args[1], os.Args[2:], os.Stdout))
		}
	}
	if err := benchMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Uint64("seed", 1, "workload seed")
		seconds = fs.Float64("seconds", 20, "length of the measured phase, in host seconds")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from microbenchmarks, a CPU profile and spans")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	newWorkload, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", *seconds)
	}
	prov, err := collectProvenance(*name, *seed, *traced)
	if err != nil {
		return err
	}

	r := newRun(*seed)
	w := newWorkload()
	if err := w.setup(r); err != nil {
		return fmt.Errorf("%s setup: %w", *name, err)
	}

	var vals map[string]float64
	if *traced == 0 {
		// Two passes at least, so every pass's output and counts are
		// checked against the first's.
		measure(r, w, *seconds, 2)
		r.finish()
		vals = w.metrics(r)
		vals["pass_ref_s"] = scaledPass(r)
		vals["setup_s"] = median(r.samples["setup_s"])
		vals["alloc_mb"] = median(r.samples["alloc_mb"])
		vals["mean_rss_mb"] = median(r.samples["mean_rss_mb"])
	} else {
		micro := runMicro(r)
		probed, err := probeOthers(r, *name)
		if err != nil {
			return err
		}
		measure(r, w, *seconds/2, 1)
		listed := map[string]bool{}
		for _, m := range sp.PerLayer {
			listed[m.Name] = true
		}
		prof, err := measureTraced(r, w, *seconds/2, listed)
		if err != nil {
			return err
		}
		r.finish()
		vals = w.metrics(r)
		for _, m := range []map[string]float64{micro, probed, prof} {
			for k, v := range m {
				vals[k] = v
			}
		}
		vals["trace_overhead"] = median(r.samples["traced.wall_s"]) / median(r.samples["wall_s"])
		vals["runtime.gc_cycles"] = median(r.samples["gc_cycles"])
		vals["runtime.gc_pause_ms"] = median(r.samples["gc_pause_ms"])
		vals["machine.build_ms"] = median(r.samples["machine.build_ms"])
		vals["wall_s"] = median(r.samples["wall_s"])
		vals["peak_rss_mb"] = median(r.samples["peak_rss_mb"])
		vals["host_speed"] = calibRefS / median(r.samples["calib_s"])
	}
	r.crossRunCheck(filepath.Join(outDir, "counts"), prov.SourceDigest, *name)

	metricsOut, err := spec2metrics(sp, *traced, vals)
	if err != nil {
		return err
	}
	res := resultLine{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metricsOut,
	}
	if err := writeRecord(r, *name, *traced, prov, res); err != nil {
		return err
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}
	pj, _ := json.Marshal(prov) // plain struct of strings and numbers
	fmt.Fprintf(stdout, "provenance: %s\n", pj)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// spec2metrics selects the metrics the spec lists for this mode. Every
// workload must produce every end-to-end metric; a per-layer count or rate
// of a layer the workload does not drive reads 0 (no snapshot bytes on
// paper_suite, no requests on ckpt_ring).
func spec2metrics(sp *spec, traced int, vals map[string]float64) (map[string]metricValue, error) {
	list := sp.EndToEnd
	if traced == 1 {
		list = sp.PerLayer
	}
	out := make(map[string]metricValue, len(list))
	for _, m := range list {
		v, ok := vals[m.Name]
		if traced == 0 && (!ok || v == 0) {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s = %g", m.Name, v)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, nil
}

// measure runs passes for about the given host time, and at least
// minPasses: it starts no pass that would, at the last pass's length, end
// more than half a pass after the budget.
func measure(r *run, w benchWorkload, seconds float64, minPasses int) {
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var last time.Duration
	for n := 0; n < minPasses || time.Since(start)+last/2 < budget; n++ {
		t0 := time.Now()
		onePass(r, w)
		last = time.Since(t0)
	}
}

// onePass runs one pass of w between two calibration chunks and records
// the samples every workload has: host time, peak and mean resident set,
// heap bytes allocated and GC activity. Host time leaves out the chunks;
// finish scales the pass's units.
func onePass(r *run, w benchWorkload) {
	if len(r.chunks) == 0 {
		r.calibrate()
	}
	r.pass, r.unitSeq = r.passes, 0
	cal0 := r.calTime
	// Start every pass from a collected heap with its free pages returned
	// to the OS, so one pass's garbage does not land in the next pass's
	// figures and each pass's peak resident set is its own.
	debug.FreeOSMemory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rss := watchRSS()
	t0 := time.Now()
	id := r.begin("pass", -1)
	w.pass(r, id)
	r.calibrate() // the chunk after the pass's last units
	r.end(id)
	r.pass = -1
	wall := time.Since(t0) - (r.calTime - cal0)
	rf := rss.figures()
	r.sample("peak_rss_mb", rf.peak)
	r.sample("mean_rss_mb", rf.mean)
	runtime.ReadMemStats(&after)
	r.sample("wall_s", wall.Seconds())
	r.sample("alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	r.sample("gc_cycles", float64(after.NumGC-before.NumGC))
	r.sample("gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	r.endPass()
}

// rssWatch samples the process's resident set every 5 ms while a pass
// runs, keeping the largest value and the mean. Go returns freed pages to
// the OS only slowly, so the resident set stays near its peak between
// samples.
type rssWatch struct {
	stop chan struct{}
	done chan rssFigures
}

// rssFigures are one pass's resident-set figures, in MB.
type rssFigures struct{ peak, mean float64 }

func watchRSS() *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), done: make(chan rssFigures, 1)}
	go func() {
		statm, err := os.Open("/proc/self/statm")
		if err != nil {
			w.done <- rssFigures{}
			return
		}
		defer statm.Close()
		// One buffer, reread in place: the sampler allocates nothing, so it
		// adds nothing to the pass's heap figures.
		buf := make([]byte, 128)
		var f rssFigures
		sum, n := 0.0, 0
		sample := func() {
			n2, _ := statm.ReadAt(buf, 0) // a short read ends in io.EOF
			mb := residentMB(buf[:n2])
			f.peak = math.Max(f.peak, mb)
			sum += mb
			n++
		}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for sample(); ; sample() {
			select {
			case <-t.C:
			case <-w.stop:
				sample()
				f.mean = sum / float64(n)
				w.done <- f
				return
			}
		}
	}()
	return w
}

// figures stops the watch and returns what it saw.
func (w *rssWatch) figures() rssFigures {
	close(w.stop)
	return <-w.done
}

// residentMB parses the resident page count, the second field of
// /proc/self/statm, into MB.
func residentMB(statm []byte) float64 {
	field, pages := 0, 0
	for _, c := range statm {
		switch {
		case c == ' ':
			field++
		case field == 1 && c >= '0' && c <= '9':
			pages = pages*10 + int(c-'0')
		}
	}
	return float64(pages) * float64(os.Getpagesize()) / 1e6
}

func writeRecord(r *run, name string, traced int, prov provenance, res resultLine) error {
	rec := resultFile{
		Workload:   name,
		Trace:      traced,
		Provenance: prov,
		Result:     res,
		Samples:    map[string]summary{},
		Counts:     r.counts,
		Failures:   r.failures,
	}
	for k, xs := range r.samples {
		rec.Samples[k] = summarize(xs)
	}
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d-%d", name, r.seed, traced, time.Now().UnixNano())
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), data, 0o644); err != nil {
		return err
	}
	if r.spans == nil {
		return nil
	}
	return r.spans.writeChrome(filepath.Join(outDir, "spans", base+".json"))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
