// Command nocsim runs the reproduction experiments for "A Case Against
// (Most) Context Switches" (HotOS '21) and prints their paper-style tables.
//
// Usage:
//
//	nocsim -list
//	nocsim -exp F1            # one experiment
//	nocsim -exp F1,F7,T2      # several
//	nocsim -all               # the full suite (EXPERIMENTS.md input)
//	nocsim -all -quick        # reduced sample counts
//	nocsim -seed 7 -exp F7    # alternate workload seed
//	nocsim -all -parallel 8   # concurrent experiments, identical output
//	nocsim -all -cpuprofile cpu.pb.gz   # profile the simulator itself
//	nocsim -exp F1 -trace f1.json       # cycle trace, open at ui.perfetto.dev
//	nocsim -scale             # S1: the 64-core E1 ring across real CPUs
//	nocsim -scale -cores 256 -workers 8 # bigger machine, explicit workers
//	nocsim -locks             # L1: lock contention, nocs vs legacy parking
//	nocsim -locks -quick      # CI-sized contention sweep
//	nocsim -serve             # SV1: datacenter serving cells, load × arrival × flavor
//	nocsim -serve -quick      # CI-sized serving grid incl. overload cells
//	nocsim -endurance -checkpoint-every 100000 -checkpoint run.ckpt
//	                          # E1 endurance run, periodic machine checkpoints
//	nocsim -endurance -resume run.ckpt  # warm-start from the last checkpoint
//
// Two parallelism axes, one rule (DESIGN.md §12): `-parallel` runs
// independent experiments/sweep points concurrently (coarse, zero
// cross-talk); `-workers`/`-shards` parallelize INSIDE one machine via the
// sharded scheduler (S1, E1, SV1), whose cross-shard lookahead is fixed at
// machine.DefaultLookahead. Both are clamped to GOMAXPROCS, and neither
// changes a byte of output — worker count is a wall-clock knob only.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"nocs/internal/bench"
	"nocs/internal/faultinject"
	"nocs/internal/sim"
	"nocs/internal/snapshot"
	"nocs/internal/trace"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list experiments and exit")
		exp        = flag.String("exp", "", "comma-separated experiment IDs (e.g. F1,T2)")
		all        = flag.Bool("all", false, "run every experiment")
		quick      = flag.Bool("quick", false, "reduced sample counts")
		seed       = flag.Uint64("seed", bench.DefaultConfig().Seed, "workload RNG seed")
		format     = flag.String("format", "table", "output format: table or csv")
		parallel   = flag.Int("parallel", 1, "run up to N experiments (and sweep points within them) concurrently, clamped to the usable CPU count; every run uses isolated engines and results merge in registry order, so output is identical at any setting")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the simulator to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (after all runs) to this file")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON file (open at ui.perfetto.dev); forces -parallel 1")
		faults     = flag.String("faults", "", `fault-injection plan for fault-aware experiments (F2, F16): "default" arms the standard seeded plan, "" runs fault-free`)
		scale      = flag.Bool("scale", false, "run S1, the sharded-scheduler scaling experiment: one many-core machine executed serially, then across -workers real CPUs, with a byte-identity check between the two")
		locks      = flag.Bool("locks", false, "run L1, the lock-contention experiment: every internal/sync primitive×flavor cell swept across ptid counts, hold lengths, and SMT slots, plus a shard-determinism check")
		serveFlag  = flag.Bool("serve", false, "run SV1, the datacenter serving sweep: multi-tier serving cells (LB → app pool → storage) across load × arrival × flavor, each cell byte-identical between the serial oracle and the sharded scheduler")
		endurance  = flag.Bool("endurance", false, "run E1, the checkpointed endurance workload: a snapshot-complete token-ring machine whose full state can be serialized mid-run (-checkpoint-every) and warm-started later (-resume)")
		horizon    = flag.Int64("horizon", 0, "simulated cycles for -scale and -endurance (default 400000, or 100000 with -quick)")
		ckptEvery  = flag.Int64("checkpoint-every", 0, "serialize a machine checkpoint every N simulated cycles during -endurance (0 disables)")
		ckptFile   = flag.String("checkpoint", "nocs.ckpt", "checkpoint file -checkpoint-every overwrites (atomically) and -resume reads")
		resume     = flag.String("resume", "", "warm-start -endurance from this checkpoint file instead of cold boot; the run continues to -horizon and must reproduce the straight-through hash")
		cores      = flag.Int("cores", 0, "simulated core count for -scale (default 64, or 16 with -quick) and -endurance (default 16, or 4 with -quick)")
		workers    = flag.Int("workers", 0, "worker goroutines driving one sharded machine (-scale, -endurance, -serve), clamped to GOMAXPROCS; 0 means GOMAXPROCS")
		shards     = flag.Int("shards", 0, "event-queue shards for -scale and -endurance (default one per simulated core; more than the core count is clamped to it)")
	)
	flag.Parse()

	if *format != "table" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "unknown -format %q (want \"table\" or \"csv\")\n", *format)
		os.Exit(2)
	}

	// More workers than usable CPUs is pure overhead for this CPU-bound
	// simulator: the goroutines time-slice the same cores while the extra
	// in-flight experiments inflate the live heap and GC pressure. On a
	// single-CPU host, -parallel 8 measurably LOSES to serial (BENCH_1.json
	// recorded 2942 ms vs 2764 ms), so clamp rather than oversubscribe —
	// output is identical at any setting, only the wall time changes.
	requestedParallel := *parallel
	if max := runtime.GOMAXPROCS(0); *parallel > max {
		*parallel = max
	}

	if *list {
		for _, id := range bench.IDs() {
			e, _ := bench.Get(id)
			fmt.Printf("%-4s %s\n", id, e.Title)
		}
		return
	}

	if *scale || *endurance {
		ec := bench.DefaultEnduranceConfig(*quick)
		if *scale {
			ec = bench.DefaultScaleConfig(*quick)
		}
		if *cores > 0 {
			ec.Cores = *cores
		}
		if *shards > 0 {
			ec.Shards = *shards
		}
		if *workers > 0 {
			ec.Workers = *workers
		}
		if *horizon > 0 {
			ec.Horizon = sim.Cycles(*horizon)
		}
		// Same rule as -parallel: extra workers beyond real CPUs only add
		// scheduling overhead to a CPU-bound simulator, so clamp.
		if max := runtime.GOMAXPROCS(0); ec.Workers > max {
			ec.Workers = max
		}
		cfg := bench.RunConfig{Seed: *seed, Quick: *quick}
		if *scale {
			res, stats, err := bench.RunScale(cfg, ec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "scale: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(res)
			fmt.Printf("S1 stats: cores=%d shards=%d workers=%d serial_ms=%.3f parallel_ms=%.3f speedup=%.4f instrs_per_sec=%.0f hash=%016x\n",
				stats.Cores, stats.Shards, stats.Workers,
				stats.SerialWallSec*1e3, stats.ParallelWallSec*1e3,
				stats.Speedup, stats.InstrsPerSec, stats.Hash)
			return
		}
		if *resume != "" {
			data, err := os.ReadFile(*resume)
			if err != nil {
				fmt.Fprintf(os.Stderr, "resume: %v\n", err)
				os.Exit(1)
			}
			snap, err := snapshot.Decode(data)
			if err != nil {
				fmt.Fprintf(os.Stderr, "resume: %s: %v\n", *resume, err)
				os.Exit(1)
			}
			cfg.FromSnapshot = snap
		}
		var sink func(at sim.Cycles, ckpt []byte) error
		if *ckptEvery > 0 {
			sink = func(at sim.Cycles, ckpt []byte) error {
				// Write-then-rename so a crash mid-write never truncates the
				// previous good checkpoint.
				tmp := *ckptFile + ".tmp"
				if err := os.WriteFile(tmp, ckpt, 0o644); err != nil {
					return err
				}
				if err := os.Rename(tmp, *ckptFile); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "checkpoint: cycle %d -> %s (%d bytes)\n", at, *ckptFile, len(ckpt))
				return nil
			}
		}
		sum, stats, err := bench.RunEndurance(cfg, ec, sim.Cycles(*ckptEvery), sink)
		if err != nil {
			fmt.Fprintf(os.Stderr, "endurance: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(sum)
		fmt.Printf("E1 stats: cores=%d shards=%d workers=%d horizon=%d checkpoints=%d ckpt_bytes=%d resumed=%v hash=%016x\n",
			stats.Cores, stats.Shards, stats.Workers, stats.Horizon,
			stats.Checkpoints, stats.CheckpointBytes, stats.Resumed, stats.Hash)
		return
	}

	if *locks {
		res, stats, err := bench.RunLocks(bench.RunConfig{Seed: *seed, Quick: *quick},
			bench.DefaultLockConfig(*quick))
		if err != nil {
			fmt.Fprintf(os.Stderr, "locks: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(res)
		for _, r := range stats.Rows {
			fmt.Printf("L1 stats: cell=%s ptids=%d slots=%d hold=%s acq=%d p50=%d p99=%d handoff=%.1f starve=%d spread=%d done=%d\n",
				r.Cell, r.Ptids, r.Slots, r.Hold, r.Acq, r.P50, r.P99,
				r.HandoffMean, r.StarveMax, r.Spread, r.DoneAt)
		}
		fmt.Printf("L1 shards: shards=1,2,4 workers=%d identical=true hash=%016x speedup=%.2f\n",
			stats.ShardWorkers, stats.ShardHash, stats.ShardSpeedup)
		return
	}

	if *serveFlag {
		sc := bench.DefaultServeConfig(*quick)
		if *workers > 0 {
			sc.Workers = *workers
		}
		if max := runtime.GOMAXPROCS(0); sc.Workers > max {
			sc.Workers = max
		}
		res, cells, err := bench.RunServe(bench.RunConfig{Seed: *seed, Quick: *quick}, sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(res)
		for _, c := range cells {
			fmt.Printf("SV1 stats: flavor=%s arrival=%s load=%.2f gen=%d done=%d refused=%d refused_conns=%d peak=%d p50=%d p99=%d p999=%d mean=%.1f goodput=%.2f lockw=%d busy=%d stalls=%d pump=%d dram=%d hash=%016x\n",
				c.Flavor, c.Arrival, c.Load, c.Generated, c.Completed, c.Refused,
				c.RefusedConns, c.OpenPeak, c.P50, c.P99, c.P999, c.MeanLat,
				c.GoodputKRPS, c.LockWaits, c.SendBusy, c.RingStalls, c.PumpStalls,
				c.DRAMStarts, c.Hash)
		}
		return
	}

	var ids []string
	switch {
	case *all:
		ids = bench.IDs()
	case *exp != "":
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := bench.RunConfig{Seed: *seed, Quick: *quick, Parallel: *parallel}
	switch *faults {
	case "":
	case "default":
		plan := faultinject.Default()
		cfg.Faults = &plan
	default:
		fmt.Fprintf(os.Stderr, "unknown -faults plan %q (want \"default\" or empty)\n", *faults)
		os.Exit(2)
	}
	if *traceOut != "" {
		cfg.Tracer = trace.New()
		if requestedParallel > 1 {
			fmt.Fprintln(os.Stderr, "note: -trace forces serial execution for a deterministic event order")
		}
	}
	failed := 0
	for _, o := range bench.RunAll(ids, cfg, *parallel) {
		if o.Err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", o.ID, o.Err)
			failed++
			continue
		}
		switch *format {
		case "csv":
			for i, t := range o.Res.Tables {
				fmt.Printf("# %s table %d: %s\n%s\n", o.Res.ID, i+1, t.Title, t.CSV())
			}
		default:
			fmt.Println(o.Res)
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := cfg.Tracer.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", cfg.Tracer.Len(), *traceOut)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
	}

	if failed > 0 {
		os.Exit(1)
	}
}
