package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"

	"nocs/internal/asm"
	"nocs/internal/core"
	"nocs/internal/hwthread"
	"nocs/internal/machine"
	"nocs/internal/sim"
)

// E1 — the checkpointed endurance run (DESIGN.md §13). A many-core token
// ring built checkpoint-safe: every piece of dynamic state the pacer natives
// touch lives in simulated memory words rather than Go closure variables, so
// a machine.Snapshot taken at any cycle rebuilds the run exactly. This is
// what `nocsim -endurance -checkpoint-every N` drives, what `-resume FILE`
// warm-starts, and the machine S1 runs serial and sharded.
//
// Like S1, E1 is not in the experiment registry: the golden `-all` output is
// unchanged.

const enduranceMailboxBase = 0x700000

// EnduranceConfig sizes the endurance run.
type EnduranceConfig struct {
	// Cores is the simulated core count (default 16).
	Cores int
	// Shards is the event-queue shard count (default = Cores).
	Shards int
	// Workers is the worker-goroutine count (default = GOMAXPROCS).
	Workers int
	// Horizon is the simulated time to run (default 400k cycles).
	Horizon sim.Cycles
}

// DefaultEnduranceConfig returns the standard E1 sizing, or a CI-sized one
// when quick is set.
func DefaultEnduranceConfig(quick bool) EnduranceConfig {
	ec := EnduranceConfig{
		Cores:   16,
		Workers: runtime.GOMAXPROCS(0),
		Horizon: 400_000,
	}
	if quick {
		ec.Cores = 4
		ec.Horizon = 100_000
	}
	return ec
}

func (ec *EnduranceConfig) fill() {
	if ec.Cores <= 0 {
		ec.Cores = 16
	}
	if ec.Shards <= 0 {
		ec.Shards = ec.Cores
	}
	if ec.Workers <= 0 {
		ec.Workers = runtime.GOMAXPROCS(0)
	}
	if ec.Horizon <= 0 {
		ec.Horizon = 400_000
	}
}

// BuildEndurance constructs the E1 machine: per-core compute spinners plus a
// pacer service thread in monitor/mwait, a token circling the ring of cores
// via cross-shard remote writes, and the first token injected through the
// machine's checkpointable DMA-injection API. Each core owns two memory
// words — mailbox (the incoming token) and seen (the last token handled) —
// and the pacer keeps ALL of its state in them, which is what makes the
// machine snapshot-complete: restore rebuilds the pacers from memory alone.
func BuildEndurance(cfg RunConfig, ec EnduranceConfig) (*machine.Machine, error) {
	ec.fill()
	m := cfg.NewMachine(
		machine.WithCores(ec.Cores),
		machine.WithShards(ec.Shards),
		machine.WithWorkers(ec.Workers),
		machine.WithThreads(2),
		machine.WithSMTSlots(2),
	)

	spin := asm.MustAssemble("spin",
		"main:\n\tmovi r1, 0\nloop:\n\taddi r1, r1, 1\n\txor r2, r2, r1\n\tjmp loop")
	pacerProg := asm.MustAssemble("pacer", "loop:\n\tnative endurance.pacer\n\tjmp loop")

	for i := 0; i < ec.Cores; i++ {
		i := i
		c := m.Core(i)
		mb := enduranceMailboxBase + int64(i)*16
		seen := mb + 8
		next := (i + 1) % ec.Cores
		nextMB := enduranceMailboxBase + int64(next)*16
		c.RegisterNative("endurance.pacer", func(c *core.Core, t *hwthread.Context) sim.Cycles {
			c.ArmWatches(t, mb)
			if v := c.ReadWord(mb); v > c.ReadWord(seen) {
				c.WriteWord(seen, v)
				m.RemoteWrite(m.ShardOfCore(i), m.ShardOfCore(next), nextMB, v+1, 0)
				return 60 // token handling occupies the thread
			}
			c.WaitArmed(t)
			return 0
		})

		if err := c.BindProgram(0, spin, "main"); err != nil {
			return nil, err
		}
		if err := c.BootStart(0); err != nil {
			return nil, err
		}
		if err := c.BindProgram(1, pacerProg, "loop"); err != nil {
			return nil, err
		}
		c.Threads().Context(1).Regs.Mode = 1
		if err := c.BootStart(1); err != nil {
			return nil, err
		}
	}

	// First token toward core 0 at cycle 1, via the checkpointable injection
	// API so a pre-token checkpoint still carries the kick.
	m.ScheduleDMAWrite(0, 1, enduranceMailboxBase, 1)

	// A warm-start config replaces the cold boot just assembled with the
	// checkpoint's state; construction had to happen anyway so the machine
	// has the right topology and natives for the restore to graft onto.
	if err := cfg.WarmStart(m); err != nil {
		return nil, err
	}
	return m, nil
}

// EnduranceSummary renders the run's observable state: the clock, each
// core's last-handled token, and its retired-instruction count. Byte
// equality of two summaries is the restore-equivalence check the CLI's
// resume path relies on, and S1's serial-vs-sharded check. The header
// prints the machine's shard count, which machine.New clamps to the core
// count, so a run and its resume agree however many shards were asked for.
func EnduranceSummary(ec EnduranceConfig, m *machine.Machine) string {
	ec.fill()
	var b strings.Builder
	fmt.Fprintf(&b, "cores=%d shards=%d horizon=%d now=%d\n",
		ec.Cores, m.Shards(), ec.Horizon, m.Now())
	for i := 0; i < ec.Cores; i++ {
		fmt.Fprintf(&b, "core%03d seen=%d retired=%d\n", i, enduranceSeen(m, i), m.Core(i).Retired())
	}
	return b.String()
}

// enduranceSeen reads core i's seen word: the last token its pacer handled.
func enduranceSeen(m *machine.Machine, i int) int64 {
	return m.MemOf(m.ShardOfCore(i)).Read(enduranceMailboxBase + int64(i)*16 + 8)
}

// EnduranceStats is the machine-readable outcome of RunEndurance.
type EnduranceStats struct {
	Cores, Shards, Workers int
	Horizon                sim.Cycles
	// Checkpoints is how many checkpoints the run serialized.
	Checkpoints int
	// CheckpointBytes is the size of the last serialized checkpoint.
	CheckpointBytes int
	// Resumed reports whether the machine warm-started from a snapshot.
	Resumed bool
	// Hash is the fnv64a of the final summary; a resumed run must reproduce
	// the straight-through run's hash exactly.
	Hash uint64
}

// RunEndurance drives the E1 machine to ec.Horizon. When cfg.FromSnapshot is
// set the machine warm-starts from it (the `-resume` path) and continues
// from the checkpoint's cycle. When every > 0 and sink != nil, the run
// pauses every `every` cycles and hands a serialized checkpoint to sink (the
// `-checkpoint-every` path). Returns the final summary and stats.
func RunEndurance(cfg RunConfig, ec EnduranceConfig, every sim.Cycles,
	sink func(at sim.Cycles, ckpt []byte) error) (string, *EnduranceStats, error) {
	ec.fill()
	m, err := BuildEndurance(cfg, ec)
	if err != nil {
		return "", nil, err
	}
	stats := &EnduranceStats{
		Cores: ec.Cores, Shards: m.Shards(), Workers: ec.Workers,
		Horizon: ec.Horizon, Resumed: cfg.FromSnapshot != nil,
	}

	next := m.Now()
	for next < ec.Horizon {
		if every <= 0 || sink == nil {
			next = ec.Horizon
		} else {
			next += every
			if next > ec.Horizon {
				next = ec.Horizon
			}
		}
		m.RunUntil(next)
		if err := m.Fatal(); err != nil {
			return "", nil, err
		}
		if every > 0 && sink != nil && next < ec.Horizon {
			var buf bytes.Buffer
			if err := m.Snapshot(&buf); err != nil {
				return "", nil, fmt.Errorf("checkpoint at cycle %d: %w", next, err)
			}
			stats.Checkpoints++
			stats.CheckpointBytes = buf.Len()
			if err := sink(next, buf.Bytes()); err != nil {
				return "", nil, err
			}
		}
	}

	sum := EnduranceSummary(ec, m)
	stats.Hash = summaryHash(sum)
	return sum, stats, nil
}
