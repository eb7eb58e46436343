package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"nocs/internal/bench"
)

// goldenSeed is the seed results_full.txt was produced at.
const goldenSeed = 20210531

// goldenFile is the committed output of `nocsim -all`.
const goldenFile = "results_full.txt"

// machineProbes is how many machines setup builds to time one build; the
// median of many keeps a microsecond-scale figure steady.
const machineProbes = 400

// paperSuite runs the registered experiments through bench.Run, serially
// and in registry order, as `nocsim -all` does. Each experiment builds its
// own machines inside bench.Run, so machine construction is part of the
// pass; set-up time on this workload is the time to build one default
// experiment machine (RunConfig.NewMachine), timed here from outside.
type paperSuite struct {
	ids    []string
	golden map[string]string // experiment ID → expected output, at goldenSeed
}

func (p *paperSuite) setup(r *run) error {
	p.ids = bench.IDs()
	if len(p.ids) == 0 {
		return fmt.Errorf("no registered experiments")
	}
	if r.seed == goldenSeed {
		data, err := os.ReadFile(goldenFile)
		if err != nil {
			return err
		}
		p.golden = splitGolden(string(data))
		for _, id := range p.ids {
			if _, ok := p.golden[id]; !ok {
				return fmt.Errorf("%s has no output for experiment %s", goldenFile, id)
			}
		}
	}
	cfg := bench.RunConfig{Seed: r.seed}
	// Build untimed first: the first builds of a fresh process pay for heap
	// growth and cold caches that the suite's later builds do not.
	for i := 0; i < machineProbes; i++ {
		cfg.NewMachine()
	}
	for i := 0; i < machineProbes; i++ {
		if i%40 == 0 {
			r.calibrate()
			runtime.GC() // keep collector work out of the microsecond-scale builds
		}
		t0 := time.Now()
		m := cfg.NewMachine()
		d := time.Since(t0)
		if m.Cores() != 1 {
			return fmt.Errorf("default machine has %d cores", m.Cores())
		}
		r.setupSample(d)
		r.sample("machine.build_ms", float64(d.Nanoseconds())/1e6)
	}
	r.calibrate()
	return nil
}

// splitGolden cuts `nocsim -all` output into each experiment's block: from
// its "### <ID> — " header up to the next header, exactly as the CLI prints
// it (the result followed by a blank line).
func splitGolden(all string) map[string]string {
	out := map[string]string{}
	blocks := strings.Split(all, "### ")
	for _, b := range blocks[1:] {
		id, _, _ := strings.Cut(b, " ")
		out[id] = "### " + b
	}
	return out
}

func (p *paperSuite) pass(r *run, parent int) {
	cfg := bench.RunConfig{Seed: r.seed}
	var other time.Duration
	for _, id := range p.ids {
		var res *bench.Result
		var err error
		d := r.unit("exp "+id, parent, func() { res, err = bench.Run(id, cfg) })
		switch id {
		case "F7", "F9", "A1":
			r.sample("bench."+id+"_s", d.Seconds())
		default:
			other += d
		}
		if !r.checkErr(err, "experiment "+id) {
			continue
		}
		out := res.String() + "\n"
		// The output's hash is an exact count: every pass, and every run
		// of this seed, must print the same bytes.
		r.setCount("out."+id, hash64(out))
		if p.golden != nil && out != p.golden[id] {
			r.fail(fmt.Sprintf("experiment %s: output differs from %s", id, goldenFile))
		}
	}
	r.sample("bench.other_s", other.Seconds())
}

func (p *paperSuite) metrics(r *run) map[string]float64 {
	return map[string]float64{
		"bench.F7_s":    median(r.samples["bench.F7_s"]),
		"bench.F9_s":    median(r.samples["bench.F9_s"]),
		"bench.A1_s":    median(r.samples["bench.A1_s"]),
		"bench.other_s": median(r.samples["bench.other_s"]),
	}
}
