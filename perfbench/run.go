package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// benchWorkload is one set of inputs the benchmark runs. setup prepares
// inputs and may record set-up samples; pass runs one unit of measured work
// under the given parent span, recording samples, exact counts and checks;
// metrics derives the workload's named figures from what the passes
// recorded.
type benchWorkload interface {
	setup(r *run) error
	pass(r *run, parent int)
	metrics(r *run) map[string]float64
}

var workloads = map[string]func() benchWorkload{
	"paper_suite": func() benchWorkload { return &paperSuite{} },
	"serve_grid":  func() benchWorkload { return &serveGrid{conns: 3000} },
	"ckpt_ring":   func() benchWorkload { return newCkptRing() },
}

// owned lists, per workload, the host-measured per-layer times and rates
// that only that workload produces. A traced run of another workload
// measures them with one pass of their owner (probeOthers), so no measured
// time reads a constant 0 on the workloads that do not drive its layer.
var owned = map[string][]string{
	"paper_suite": {"bench.F7_s", "bench.F9_s", "bench.A1_s", "bench.other_s"},
	"serve_grid": {"serve.cell_serial_s", "serve.cell_sharded_s", "sim_requests_per_s",
		"serve.nocs.p99_cycles", "serve.legacy.p99_cycles"},
	"ckpt_ring": {"ckpt_ms", "restore_ms", "snapshot.encode_mb_per_s", "snapshot.decode_mb_per_s",
		"snapshot.encode_p90_ms", "snapshot.restore_p90_ms"},
}

// probeOthers runs one pass of every workload but self at r's seed and
// returns the metrics those workloads own. Their checked operations count
// toward r.
func probeOthers(r *run, self string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, name := range workloadNames() {
		if name == self {
			continue
		}
		w, pr := workloads[name](), newRun(r.seed)
		if err := w.setup(pr); err != nil {
			return nil, fmt.Errorf("%s probe setup: %w", name, err)
		}
		onePass(pr, w)
		vals := w.metrics(pr)
		for _, k := range owned[name] {
			out[k] = vals[k]
		}
		r.attempted += pr.attempted
		r.failed += pr.failed
		for _, msg := range pr.failures {
			if len(r.failures) < maxFailures {
				r.failures = append(r.failures, name+" probe: "+msg)
			}
		}
	}
	return out, nil
}

// maxFailures caps how many failure messages a run keeps.
const maxFailures = 20

// run is the state of one benchmark invocation: the checked-operation
// tally, named sample series, and the exact counts every pass must repeat.
type run struct {
	seed uint64
	// workers is the worker count of every sharded run: at most two, and
	// never more than the host's CPUs.
	workers int

	attempted, failed int
	failures          []string

	samples map[string][]float64
	// counts holds the first pass's exact counts; passCounts the current
	// pass's, compared against counts when the pass ends.
	counts, passCounts map[string]uint64
	passes             int

	// tracing routes samples to "traced."-prefixed series so per-layer
	// timings come from untraced passes only; spans is non-nil while
	// tracing.
	tracing bool
	spans   *spanLog

	// calib runs one calibration chunk and returns its host time and
	// steady time (see calib.go); chunks and steady hold every chunk's
	// two times in seconds, calTime the sum of their host times.
	calib          func() (time.Duration, time.Duration)
	chunks, steady []float64
	calTime        time.Duration
	// units holds every timed call, scaled by finish; sinceCal is the
	// host time of the units since the latest chunk. pass numbers the
	// current pass (-1 outside any pass) and unitSeq its next unit.
	units    []unitRec
	sinceCal time.Duration
	pass     int
	unitSeq  int
}

// unitRec is one timed call into the program.
type unitRec struct {
	wall   float64 // host seconds
	chunk  int     // chunks run before the call ended
	pass   int     // -1 outside any pass
	seq    int     // index within the pass
	setup  bool    // also a setup_s sample
	traced bool
}

// shardedWorkers is min(2, nproc).
func shardedWorkers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func newRun(seed uint64) *run {
	return &run{
		seed:       seed,
		workers:    shardedWorkers(),
		samples:    map[string][]float64{},
		passCounts: map[string]uint64{},
		calib:      newCalibrator().chunk,
		pass:       -1,
	}
}

// check records one checked operation; it fails when ok is false.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.fail(fmt.Sprintf(format, args...))
	}
	return ok
}

// checkErr records one operation that failed when err is non-nil.
func (r *run) checkErr(err error, what string) bool {
	if err != nil {
		return r.check(false, "%s: %v", what, err)
	}
	return r.check(true, "")
}

func (r *run) fail(msg string) {
	r.failed++
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, msg)
	}
}

func (r *run) sample(name string, v float64) {
	if r.tracing {
		name = "traced." + name
	}
	r.samples[name] = append(r.samples[name], v)
}

// count records an exact count of the current pass, adding to any value
// already recorded under name in this pass.
func (r *run) count(name string, v uint64) { r.passCounts[name] += v }

// setCount records an exact count of the current pass, replacing any value
// recorded under name in this pass.
func (r *run) setCount(name string, v uint64) { r.passCounts[name] = v }

// endPass closes a pass: the first pass's counts become the reference, and
// every later pass must repeat them exactly — one checked operation per
// pass.
func (r *run) endPass() {
	defer func() { r.passCounts = map[string]uint64{}; r.passes++ }()
	if r.passes == 0 {
		r.counts = r.passCounts
		return
	}
	diff := diffCounts(r.counts, r.passCounts)
	r.check(len(diff) == 0, "pass %d: counts %v differ from the first pass", r.passes+1, diff)
}

// diffCounts lists the names whose values differ between a and b.
func diffCounts(a, b map[string]uint64) []string {
	var diff []string
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			diff = append(diff, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			diff = append(diff, k)
		}
	}
	sort.Strings(diff)
	return diff
}

// crossRunCheck compares this run's exact counts with those an earlier run
// of the same workload, seed and source tree saved, and saves them when no
// earlier run did. A mismatch is one failed operation, so a count that
// changes between runs of one seed shows in the failed fraction.
func (r *run) crossRunCheck(dir, digest, name string) {
	if r.counts == nil {
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.json", digest[:16], name, r.seed))
	if data, err := os.ReadFile(path); err == nil {
		var prev map[string]uint64
		if err := json.Unmarshal(data, &prev); err != nil {
			r.check(false, "%s: %v", path, err)
			return
		}
		diff := diffCounts(prev, r.counts)
		r.check(len(diff) == 0, "counts differ from an earlier run of seed %d: %v", r.seed, diff)
		return
	}
	data, err := json.Marshal(r.counts)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		tmp := path + ".tmp"
		if err = os.WriteFile(tmp, data, 0o644); err == nil {
			err = os.Rename(tmp, path)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: counts not saved:", err)
	}
}

// countMetrics are the exact counts reported as per-layer metrics.
var countMetrics = []string{
	"sim.events", "core.instrs",
	"monitor.wakeups", "monitor.immediate", "monitor.dropped",
	"statestore.promotions", "statestore.demotions", "statestore.dram_starts",
	"netstack.received", "netstack.dropped", "netstack.sent",
	"serve.nocs.completed", "serve.nocs.refused", "serve.nocs.p99_cycles",
	"serve.legacy.completed", "serve.legacy.refused", "serve.legacy.p99_cycles",
	"snapshot.bytes",
}

// addCounts copies the first pass's exact counts into out, with the
// events-per-instruction ratio derived from two of them.
func addCounts(r *run, out map[string]float64) {
	for _, k := range countMetrics {
		if v, ok := r.counts[k]; ok {
			out[k] = float64(v)
		}
	}
	if instrs := r.counts["core.instrs"]; instrs > 0 {
		out["sim.events_per_instr"] = float64(r.counts["sim.events"]) / float64(instrs)
	}
}

// hash64 is the fnv64a of s, the fingerprint exact-output checks compare.
func hash64(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s)
	return h.Sum64()
}

// ---- spans ----

// span is one timed call into the program, relative to the log's start.
type span struct {
	Name       string
	ID, Parent int
	Start, End time.Duration
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

// begin opens a span under parent (-1 for a root) and returns its id, or -1
// when the run is not tracing.
func (r *run) begin(name string, parent int) int {
	if r.spans == nil {
		return -1
	}
	l := r.spans
	l.spans = append(l.spans, span{Name: name, ID: len(l.spans), Parent: parent, Start: time.Since(l.t0)})
	return len(l.spans) - 1
}

func (r *run) end(id int) {
	if r.spans == nil || id < 0 {
		return
	}
	r.spans.spans[id].End = time.Since(r.spans.t0)
}

// ---- units and calibration ----

// unit runs fn, one call into the program, inside a span as the next timed
// unit of the current pass, and returns its host time. finish scales it to
// the reference host speed.
func (r *run) unit(name string, parent int, fn func()) time.Duration {
	return r.timeUnit(name, parent, false, fn)
}

// setupUnit is unit for a call that builds a machine or a cluster: its
// scaled time is a setup_s sample as well.
func (r *run) setupUnit(name string, parent int, fn func()) time.Duration {
	return r.timeUnit(name, parent, true, fn)
}

func (r *run) timeUnit(name string, parent int, setup bool, fn func()) time.Duration {
	id := r.begin(name, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.end(id)
	r.units = append(r.units, unitRec{wall: d.Seconds(), chunk: len(r.chunks), pass: r.pass,
		seq: r.unitSeq, setup: setup, traced: r.tracing})
	r.unitSeq++
	r.sinceCal += d
	if r.sinceCal >= calibEvery {
		r.calibrate()
	}
	return d
}

// setupSample records a set-up time measured outside any pass.
func (r *run) setupSample(d time.Duration) {
	r.units = append(r.units, unitRec{wall: d.Seconds(), chunk: len(r.chunks), pass: -1, setup: true, traced: r.tracing})
}

// calibrate runs one calibration chunk.
func (r *run) calibrate() {
	c, st := r.calib()
	r.calTime += c
	r.chunks = append(r.chunks, c.Seconds())
	r.steady = append(r.steady, st.Seconds())
	r.sinceCal = 0
}

// finish scales every unit by calibRefS over the median of the chunks
// around it (calibWindow on each side), and records the scaled times: each
// pass unit as "unit.<index within the pass>", each set-up unit as
// setup_s. Set-up times are medians of millisecond- and microsecond-scale
// timings that rarely catch a preemption, so they are scaled by the
// chunks' steady times.
func (r *run) finish() {
	for _, u := range r.units {
		lo, hi := max(0, u.chunk-calibWindow), min(len(r.chunks), u.chunk+calibWindow)
		v := u.wall * calibRefS / median(r.chunks[lo:hi])
		prefix := ""
		if u.traced {
			prefix = "traced."
		}
		if u.setup {
			sv := u.wall * calibRefS / median(r.steady[lo:hi])
			r.samples[prefix+"setup_s"] = append(r.samples[prefix+"setup_s"], sv)
		}
		if u.pass >= 0 {
			k := fmt.Sprintf("%sunit.%03d", prefix, u.seq)
			r.samples[k] = append(r.samples[k], v)
		}
	}
	r.samples["calib_s"] = append(r.samples["calib_s"], r.chunks...)
}

// scaledPass is the end-to-end pass time: the sum over the pass's units of
// each unit's median scaled time. A unit slowed by a burst of host noise in
// one pass moves only its own median, not the sum.
func scaledPass(r *run) float64 {
	sum := 0.0
	for k, xs := range r.samples {
		if strings.HasPrefix(k, "unit.") {
			sum += median(xs)
		}
	}
	return sum
}

// writeChrome writes the spans as Chrome trace-event JSON (one complete
// event per span, nested by time; the causing span's id in args).
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		evs = append(evs, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ---- provenance ----

// provenance identifies the host, toolchain and source a result came from.
type provenance struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Trace        int    `json:"trace"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Workers      int    `json:"sharded_workers"`
	CPUModel     string `json:"cpu_model"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	Started      string `json:"started"`
}

func collectProvenance(name string, seed uint64, traced int) (provenance, error) {
	digest, err := sourceDigest(".")
	if err != nil {
		return provenance{}, err
	}
	p := provenance{
		Workload: name, Seed: seed, Trace: traced,
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Workers:      shardedWorkers(),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       "unknown",
		SourceDigest: digest,
		Started:      time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	return p, nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest is the sha256 over the path and contents of every Go source
// and go.mod file under root, skipping hidden directories. It names the
// exact code a result came from, with or without a git checkout.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
