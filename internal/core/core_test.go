package core

import (
	"strings"
	"testing"

	"nocs/internal/asm"
	"nocs/internal/hwthread"
	"nocs/internal/isa"
	"nocs/internal/mem"
	"nocs/internal/monitor"
	"nocs/internal/sim"
	"nocs/internal/statestore"
)

// rig bundles a single-core test machine.
type rig struct {
	eng *sim.Shard
	mem *mem.Memory
	mon *monitor.Engine
	c   *Core
}

func newRig(threads, slots int) *rig {
	eng := sim.SoloShard(sim.NewEngine(nil))
	m := mem.NewMemory()
	mon := monitor.NewEngine()
	m.AddObserver(mon)
	c := New(Config{Threads: threads, Slots: slots}, eng, m, mon)
	return &rig{eng: eng, mem: m, mon: mon, c: c}
}

// run executes events until the queue drains or maxEvents fire.
func (r *rig) run(t *testing.T, maxEvents int) {
	t.Helper()
	n := r.eng.Run(maxEvents)
	if n >= maxEvents {
		t.Fatalf("simulation did not quiesce within %d events", maxEvents)
	}
}

// grantTDT builds a one-row TDT for caller at base.
func (r *rig) grantTDT(caller hwthread.PTID, base int64, vtid hwthread.VTID, target hwthread.PTID, p hwthread.Perm) {
	t := r.c.Threads().Context(caller)
	if t.Regs.TDT == 0 {
		t.Regs.TDT = base
	}
	hwthread.WriteTDTEntry(r.mem, t.Regs.TDT, vtid, hwthread.Entry{PTID: target, Perm: p})
}

func TestALUProgram(t *testing.T) {
	r := newRig(4, 2)
	prog := asm.MustAssemble("alu", `
main:
	movi r1, 10
	movi r2, 32
	add r3, r1, r2
	sub r4, r3, r1
	mul r5, r1, r2
	movi r6, 4
	div r7, r2, r6
	slt r8, r1, r2
	halt
`)
	if err := r.c.BindProgram(0, prog, "main"); err != nil {
		t.Fatal(err)
	}
	if err := r.c.BootStart(0); err != nil {
		t.Fatal(err)
	}
	r.run(t, 1000)
	regs := &r.c.Threads().Context(0).Regs
	if regs.GPR[3] != 42 || regs.GPR[4] != 32 || regs.GPR[5] != 320 || regs.GPR[7] != 8 || regs.GPR[8] != 1 {
		t.Fatalf("registers: %v", regs.GPR)
	}
	if r.c.Threads().Context(0).State != hwthread.Disabled {
		t.Fatal("thread not halted")
	}
	if r.c.Retired() != 9 {
		t.Fatalf("retired %d, want 9", r.c.Retired())
	}
	if r.c.Fatal() != nil {
		t.Fatalf("unexpected fatal: %v", r.c.Fatal())
	}
}

func TestLoopAndBranches(t *testing.T) {
	r := newRig(2, 2)
	prog := asm.MustAssemble("loop", `
main:
	movi r1, 0
	movi r2, 100
loop:
	addi r1, r1, 1
	blt r1, r2, loop
	halt
`)
	r.c.BindProgram(0, prog, "main")
	r.c.BootStart(0)
	r.run(t, 100000)
	if got := r.c.Threads().Context(0).Regs.GPR[1]; got != 100 {
		t.Fatalf("loop counter %d", got)
	}
}

func TestLoadStoreChargesCaches(t *testing.T) {
	r := newRig(2, 2)
	prog := asm.MustAssemble("ls", `
main:
	movi r1, 4096
	movi r2, 7
	st [r1+0], r2
	ld r3, [r1+0]
	halt
`)
	r.c.BindProgram(0, prog, "main")
	r.c.BootStart(0)
	r.run(t, 1000)
	ctx := r.c.Threads().Context(0)
	if ctx.Regs.GPR[3] != 7 {
		t.Fatalf("load result %d", ctx.Regs.GPR[3])
	}
	if r.mem.Read(4096) != 7 {
		t.Fatal("store invisible in memory")
	}
	total, dram := r.c.Hierarchy().Accesses()
	if total != 2 || dram != 1 {
		t.Fatalf("cache accesses %d/%d: first touch should miss to DRAM, second hit", total, dram)
	}
}

func TestMonitorMwaitPingPong(t *testing.T) {
	r := newRig(4, 2)
	const mailbox = 8192
	waiterProg := asm.MustAssemble("waiter", `
main:
	movi r1, 8192
	monitor r1
	mwait
	ld r2, [r1+0]
	halt
`)
	writerProg := asm.MustAssemble("writer", `
main:
	movi r1, 8192
	movi r2, 99
	nop
	nop
	nop
	st [r1+0], r2
	halt
`)
	r.c.BindProgram(0, waiterProg, "main")
	r.c.BindProgram(1, writerProg, "main")

	var wakeAt sim.Cycles
	var wakeAddr int64
	r.c.OnWake = func(p hwthread.PTID, addr int64, at sim.Cycles) {
		if p == 0 {
			wakeAt, wakeAddr = at, addr
		}
	}
	r.c.BootStart(0)
	r.c.BootStart(1)
	r.run(t, 10000)

	w := r.c.Threads().Context(0)
	if w.Regs.GPR[2] != 99 {
		t.Fatalf("waiter read %d", w.Regs.GPR[2])
	}
	if w.Wakeups != 1 {
		t.Fatalf("wakeups = %d", w.Wakeups)
	}
	if wakeAddr != mailbox || wakeAt == 0 {
		t.Fatalf("wake at %v addr %#x", wakeAt, wakeAddr)
	}
	if wk := r.mon.Counters().Wakeups; wk != 1 {
		t.Fatalf("monitor wakeups = %d", wk)
	}
}

func TestMwaitAfterWriteDoesNotBlock(t *testing.T) {
	// The no-lost-wakeup path through real execution: the write lands
	// between monitor and mwait (the writer runs a tight store first).
	r := newRig(4, 2)
	prog := asm.MustAssemble("selfwake", `
main:
	movi r1, 4096
	monitor r1
	movi r2, 5
	st [r1+0], r2   ; own store hits own watch
	mwait           ; must complete immediately
	movi r3, 1
	halt
`)
	r.c.BindProgram(0, prog, "main")
	r.c.BootStart(0)
	r.run(t, 1000)
	ctx := r.c.Threads().Context(0)
	if ctx.State != hwthread.Disabled || ctx.Regs.GPR[3] != 1 {
		t.Fatalf("thread stuck: state=%v r3=%d", ctx.State, ctx.Regs.GPR[3])
	}
}

func TestStartStopViaTDT(t *testing.T) {
	r := newRig(4, 2)
	parent := asm.MustAssemble("parent", `
main:
	movi r1, 0      ; vtid 0 -> child
	start r1
	halt
`)
	child := asm.MustAssemble("child", `
main:
	movi r5, 123
	halt
`)
	r.c.BindProgram(0, parent, "main")
	r.c.BindProgram(1, child, "main")
	r.grantTDT(0, 0x100000, 0, 1, hwthread.PermStart)
	r.c.BootStart(0)
	r.run(t, 1000)
	if got := r.c.Threads().Context(1).Regs.GPR[5]; got != 123 {
		t.Fatalf("child did not run: r5=%d", got)
	}
}

func TestStopCancelsMwait(t *testing.T) {
	r := newRig(4, 2)
	waiter := asm.MustAssemble("waiter", `
main:
	movi r1, 4096
	monitor r1
	mwait
	movi r2, 1     ; must never run
	halt
`)
	stopper := asm.MustAssemble("stopper", `
main:
	nop
	nop
	nop
	nop
	nop
	nop
	movi r1, 0
	stop r1
	halt
`)
	r.c.BindProgram(0, waiter, "main")
	r.c.BindProgram(1, stopper, "main")
	r.grantTDT(1, 0x100000, 0, 0, hwthread.PermStop)
	r.c.BootStart(0)
	r.c.BootStart(1)
	r.run(t, 1000)
	w := r.c.Threads().Context(0)
	if w.State != hwthread.Disabled {
		t.Fatalf("waiter state %v", w.State)
	}
	if w.Regs.GPR[2] != 0 {
		t.Fatal("stopped waiter executed past mwait")
	}
	// A later write must not wake the stopped thread.
	r.mem.Write(4096, 1, mem.SrcCPU)
	r.run(t, 1000)
	if w.State != hwthread.Disabled || w.Regs.GPR[2] != 0 {
		t.Fatal("stopped thread woke from stale watch")
	}
}

func TestRpullRpushSwapSoftwareThread(t *testing.T) {
	// The paper's software-thread swap: parent stops child, rpushes new
	// register state including PC, restarts it.
	r := newRig(4, 2)
	parent := asm.MustAssemble("parent", `
main:
	movi r1, 0        ; vtid of child
	movi r2, 777
	rpush r1, r5, r2  ; child.r5 = 777
	movi r2, 1
	rpush r1, pc, r2  ; child.pc = 1 (skip its first instruction)
	start r1
	halt
`)
	child := asm.MustAssemble("child", `
main:
	movi r5, 0     ; skipped via rpush pc
	mov r6, r5
	halt
`)
	r.c.BindProgram(0, parent, "main")
	r.c.BindProgram(1, child, "main")
	r.grantTDT(0, 0x100000, 0, 1, hwthread.PermAll)
	r.c.BootStart(0)
	r.run(t, 1000)
	ch := r.c.Threads().Context(1)
	if ch.Regs.GPR[6] != 777 {
		t.Fatalf("child r6 = %d, want 777 (rpush'd value through skipped init)", ch.Regs.GPR[6])
	}
}

func TestExceptionDescriptorPath(t *testing.T) {
	// div0 in a user thread: descriptor written at EDP, thread disabled, and
	// a handler thread mwait-ing on the doorbell wakes and reads it.
	r := newRig(4, 2)
	const edp = 0x20000
	faulty := asm.MustAssemble("faulty", `
main:
	movi r1, 5
	movi r2, 0
	div r3, r1, r2
	halt
`)
	handler := asm.MustAssemble("handler", `
main:
	movi r1, 0x20000
	monitor r1
	mwait
	ld r2, [r1+0]    ; cause
	ld r3, [r1+8]    ; faulting pc
	ld r4, [r1+24]   ; faulting ptid
	halt
`)
	r.c.BindProgram(0, faulty, "main")
	r.c.BindProgram(1, handler, "main")
	r.c.Threads().Context(0).Regs.EDP = edp
	r.c.BootStart(1)
	r.c.BootStart(0)
	r.run(t, 10000)

	f := r.c.Threads().Context(0)
	if f.State != hwthread.Disabled {
		t.Fatal("faulting thread not disabled")
	}
	h := r.c.Threads().Context(1)
	if got := hwthread.ExcCause(h.Regs.GPR[2]); got != hwthread.ExcDivideByZero {
		t.Fatalf("handler saw cause %v", got)
	}
	if h.Regs.GPR[3] != 2 {
		t.Fatalf("faulting pc = %d, want 2 (the div)", h.Regs.GPR[3])
	}
	if h.Regs.GPR[4] != 0 {
		t.Fatalf("faulting ptid = %d", h.Regs.GPR[4])
	}
}

func TestNoHandlerIsFatal(t *testing.T) {
	r := newRig(2, 2)
	prog := asm.MustAssemble("f", "main:\n\tmovi r1, 1\n\tmovi r2, 0\n\tdiv r3, r1, r2\n\thalt")
	r.c.BindProgram(0, prog, "main")
	var fatalP hwthread.PTID = -1
	r.c.OnFatal = func(p hwthread.PTID, f *hwthread.Fault) { fatalP = p }
	r.c.BootStart(0)
	r.run(t, 1000)
	if r.c.Fatal() == nil {
		t.Fatal("no fatal recorded")
	}
	if !strings.Contains(r.c.Fatal().Error(), "no-handler") {
		t.Fatalf("fatal: %v", r.c.Fatal())
	}
	if fatalP != 0 {
		t.Fatalf("OnFatal ptid %d", fatalP)
	}
}

func TestSyscallDescriptorPersonality(t *testing.T) {
	r := newRig(4, 2)
	const edp = 0x20000
	user := asm.MustAssemble("user", `
main:
	movi r1, 42    ; syscall number
	syscall
	movi r7, 1     ; resume marker
	halt
`)
	r.c.BindProgram(0, user, "main")
	r.c.Threads().Context(0).Regs.EDP = edp
	r.c.BootStart(0)
	r.run(t, 1000)
	u := r.c.Threads().Context(0)
	if u.State != hwthread.Disabled {
		t.Fatal("user thread not disabled by descriptor-path syscall")
	}
	d := hwthread.ReadDescriptor(r.mem, edp)
	if d.Cause != hwthread.ExcSyscall || d.Info != 42 {
		t.Fatalf("descriptor %+v", d)
	}
	if d.PC != 2 {
		t.Fatalf("descriptor pc = %d, want resume point 2", d.PC)
	}
	// A kernel (native here) restarts the thread; it resumes after syscall.
	u.Regs.GPR[1] = 7 // return value
	if err := r.c.StartThreadSupervised(0); err != nil {
		t.Fatal(err)
	}
	r.run(t, 1000)
	if u.Regs.GPR[7] != 1 {
		t.Fatal("user thread did not resume after restart")
	}
}

func TestSyscallLegacyPersonality(t *testing.T) {
	r := newRig(2, 2)
	handlerRan := 0
	r.c.LegacySyscall = func(c *Core, t *hwthread.Context) sim.Cycles {
		handlerRan++
		t.Regs.GPR[1] = 55 // return value
		return 100
	}
	user := asm.MustAssemble("user", "main:\n\tmovi r1, 3\n\tsyscall\n\tmov r2, r1\n\thalt")
	r.c.BindProgram(0, user, "main")
	r.c.BootStart(0)
	start := r.eng.Now()
	r.run(t, 1000)
	if handlerRan != 1 {
		t.Fatalf("handler ran %d times", handlerRan)
	}
	u := r.c.Threads().Context(0)
	if u.Regs.GPR[2] != 55 {
		t.Fatalf("syscall return %d", u.Regs.GPR[2])
	}
	// Elapsed must include entry+handler+exit = 150+100+150.
	elapsed := r.eng.Now() - start
	min := r.c.Costs().SyscallEntry + 100 + r.c.Costs().SyscallExit
	if elapsed < min {
		t.Fatalf("elapsed %d < %d", elapsed, min)
	}
}

func TestLegacySyscallFPSavePenalty(t *testing.T) {
	runOnce := func(kernelFP bool) sim.Cycles {
		r := newRig(2, 2)
		r.c.KernelUsesFP = kernelFP
		r.c.LegacySyscall = func(c *Core, t *hwthread.Context) sim.Cycles { return 100 }
		user := asm.MustAssemble("user", "main:\n\tfmovi f0, 2\n\tmovi r1, 3\n\tsyscall\n\thalt")
		r.c.BindProgram(0, user, "main")
		r.c.BootStart(0)
		r.run(&testing.T{}, 1000)
		return r.eng.Now()
	}
	withFP := runOnce(true)
	without := runOnce(false)
	if withFP-without != 300 {
		t.Fatalf("FP save/restore penalty = %d, want 300", withFP-without)
	}
}

func TestVMCallBothPersonalities(t *testing.T) {
	// Legacy: in-thread exit.
	r := newRig(2, 2)
	exits := 0
	r.c.LegacyVMExit = func(c *Core, t *hwthread.Context) sim.Cycles {
		exits++
		return 200
	}
	guest := asm.MustAssemble("guest", "main:\n\tmovi r1, 9\n\tvmcall\n\tmovi r2, 1\n\thalt")
	r.c.BindProgram(0, guest, "main")
	r.c.BootStart(0)
	r.run(t, 1000)
	if exits != 1 || r.c.Threads().Context(0).Regs.GPR[2] != 1 {
		t.Fatalf("legacy vmcall: exits=%d", exits)
	}

	// Descriptor personality.
	r2 := newRig(2, 2)
	r2.c.BindProgram(0, guest, "main")
	r2.c.Threads().Context(0).Regs.EDP = 0x30000
	r2.c.BootStart(0)
	r2.run(t, 1000)
	d := hwthread.ReadDescriptor(r2.mem, 0x30000)
	if d.Cause != hwthread.ExcVMExit || d.Info != 9 {
		t.Fatalf("descriptor %+v", d)
	}
}

func TestGuestPrivilegedInstructionExits(t *testing.T) {
	r := newRig(2, 2)
	exits := 0
	r.c.LegacyVMExit = func(c *Core, t *hwthread.Context) sim.Cycles {
		exits++
		return 50
	}
	guest := asm.MustAssemble("guest", "main:\n\twrmsr r1, r2\n\tmovi r3, 1\n\thalt")
	r.c.BindProgram(0, guest, "main")
	r.c.MarkGuest(0, true)
	if !r.c.IsGuest(0) {
		t.Fatal("guest flag")
	}
	r.c.BootStart(0)
	r.run(t, 1000)
	if exits != 1 {
		t.Fatalf("exits = %d", exits)
	}
	if r.c.Threads().Context(0).Regs.GPR[3] != 1 {
		t.Fatal("guest did not resume after emulated instruction")
	}
	r.c.MarkGuest(0, false)
	if r.c.IsGuest(0) {
		t.Fatal("unmark")
	}
}

func TestUserPrivilegedInstructionFaults(t *testing.T) {
	r := newRig(2, 2)
	prog := asm.MustAssemble("u", "main:\n\twrmsr r1, r2\n\thalt")
	r.c.BindProgram(0, prog, "main")
	r.c.Threads().Context(0).Regs.EDP = 0x30000
	r.c.BootStart(0)
	r.run(t, 1000)
	d := hwthread.ReadDescriptor(r.mem, 0x30000)
	if d.Cause != hwthread.ExcPrivilege {
		t.Fatalf("descriptor %+v", d)
	}
}

func TestSupervisorPrivilegedOps(t *testing.T) {
	r := newRig(2, 2)
	prog := asm.MustAssemble("s", "main:\n\twrmsr r1, r2\n\trdmsr r3, r4\n\tsysret\n\thalt")
	r.c.BindProgram(0, prog, "main")
	ctx := r.c.Threads().Context(0)
	ctx.Regs.Mode = 1
	r.c.BootStart(0)
	r.run(t, 1000)
	if ctx.State != hwthread.Disabled || r.c.Fatal() != nil {
		t.Fatalf("supervisor flow failed: %v", r.c.Fatal())
	}
	if ctx.Regs.Mode != 0 {
		t.Fatal("sysret did not drop privilege")
	}
}

func TestFPDirtyGrowsStateFootprint(t *testing.T) {
	r := newRig(2, 2)
	prog := asm.MustAssemble("fp", "main:\n\tfmovi f0, 3\n\tfadd f1, f0, f0\n\thalt")
	r.c.BindProgram(0, prog, "main")
	r.c.BootStart(0)
	r.run(t, 1000)
	if got := r.c.Threads().Context(0).Regs.GetF(isa.F1); got != 6 {
		t.Fatalf("fadd result %v", got)
	}
	bytes, _ := r.c.StateStore().Occupancy(statestore.TierRF)
	if bytes < isa.VectorStateBytes {
		t.Fatalf("RF occupancy %d; vector growth not applied", bytes)
	}
}

func TestNativeInvocation(t *testing.T) {
	r := newRig(2, 2)
	called := 0
	r.c.RegisterNative("test.fn", func(c *Core, t *hwthread.Context) sim.Cycles {
		called++
		t.Regs.GPR[4] = 11
		return 500
	})
	prog := asm.MustAssemble("n", "main:\n\tnative test.fn\n\thalt")
	r.c.BindProgram(0, prog, "main")
	r.c.BootStart(0)
	r.run(t, 1000)
	if called != 1 || r.c.Threads().Context(0).Regs.GPR[4] != 11 {
		t.Fatalf("native: called=%d", called)
	}
	if r.eng.Now() < 500 {
		t.Fatalf("native cost not charged: now=%v", r.eng.Now())
	}
}

func TestNativeUnknownFaults(t *testing.T) {
	r := newRig(2, 2)
	prog := asm.MustAssemble("n", "main:\n\tnative no.such\n\thalt")
	r.c.BindProgram(0, prog, "main")
	r.c.Threads().Context(0).Regs.EDP = 0x30000
	r.c.BootStart(0)
	r.run(t, 1000)
	if d := hwthread.ReadDescriptor(r.mem, 0x30000); d.Cause != hwthread.ExcInvalidOpcode {
		t.Fatalf("descriptor %+v", d)
	}
}

func TestNativeServiceLoopWithArmAndWait(t *testing.T) {
	// The service-loop idiom: a native that blocks with ArmAndWait is
	// re-entered on each wake.
	r := newRig(4, 2)
	var events []int64
	r.c.RegisterNative("svc.loop", func(c *Core, t *hwthread.Context) sim.Cycles {
		const doorbell = 0x5000
		v := c.ReadWord(doorbell)
		if v != 0 {
			events = append(events, v)
			c.WriteWord(doorbell, 0)
		}
		if c.ArmAndWait(t, doorbell) {
			return 10
		}
		return 10
	})
	svc := asm.MustAssemble("svc", "main:\n\tnative svc.loop\n\tjmp main")
	r.c.BindProgram(0, svc, "main")
	r.c.BootStart(0)
	r.run(t, 100) // service parks itself

	for i := int64(1); i <= 3; i++ {
		r.mem.Write(0x5000, i, mem.SrcDMA)
		r.run(t, 200)
	}
	if len(events) != 3 || events[0] != 1 || events[2] != 3 {
		t.Fatalf("events: %v", events)
	}
}

func TestPSContentionSlowsExecution(t *testing.T) {
	// One compute thread alone vs 4 threads on 1 slot: ~4x wall time.
	elapsed := func(nThreads int) sim.Cycles {
		r := newRig(8, 1)
		prog := asm.MustAssemble("c", `
main:
	movi r1, 0
	movi r2, 200
loop:
	addi r1, r1, 1
	blt r1, r2, loop
	halt
`)
		for i := 0; i < nThreads; i++ {
			r.c.BindProgram(hwthread.PTID(i), prog, "main")
			r.c.BootStart(hwthread.PTID(i))
		}
		r.eng.Run(0)
		return r.eng.Now()
	}
	one := elapsed(1)
	four := elapsed(4)
	ratio := float64(four) / float64(one)
	if ratio < 3.2 || ratio > 4.8 {
		t.Fatalf("PS contention ratio %.2f, want ~4", ratio)
	}
}

func TestHLTAndWakeFromHalt(t *testing.T) {
	r := newRig(2, 2)
	prog := asm.MustAssemble("idle", "main:\n\thlt\n\tmovi r1, 1\n\thalt")
	r.c.BindProgram(0, prog, "main")
	ctx := r.c.Threads().Context(0)
	ctx.Regs.Mode = 1
	r.c.BootStart(0)
	r.run(t, 100)
	if ctx.State != hwthread.Waiting {
		t.Fatalf("state after hlt: %v", ctx.State)
	}
	r.c.WakeFromHalt(0)
	r.run(t, 100)
	if ctx.Regs.GPR[1] != 1 || ctx.State != hwthread.Disabled {
		t.Fatal("thread did not resume from halt")
	}
	r.c.WakeFromHalt(0) // no-op on non-halted
}

func TestInjectDelay(t *testing.T) {
	r := newRig(2, 2)
	prog := asm.MustAssemble("c", "main:\n\tnop\n\tnop\n\tnop\n\thalt")
	r.c.BindProgram(0, prog, "main")
	r.c.BootStart(0)
	// Inject from an event (the IRQ controller's real calling context): the
	// event is a batch boundary, so the thread's next-exec event exists and
	// gets pushed back regardless of batching granularity.
	r.eng.At(0, "inject", func() { r.c.InjectDelay(0, 5000) })
	r.eng.Run(0)
	if r.eng.Now() < 5000 {
		t.Fatalf("delay not injected: now=%v", r.eng.Now())
	}
	if r.c.Threads().Context(0).State != hwthread.Disabled {
		t.Fatal("program did not finish")
	}
}

func TestPermissionFaultDisablesCaller(t *testing.T) {
	r := newRig(4, 2)
	prog := asm.MustAssemble("p", "main:\n\tmovi r1, 0\n\tstop r1\n\thalt")
	r.c.BindProgram(1, prog, "main")
	r.grantTDT(1, 0x100000, 0, 0, hwthread.PermStart) // start only, stop will fault
	r.c.Threads().Context(1).Regs.EDP = 0x40000
	r.c.BootStart(1)
	r.run(t, 1000)
	ctx := r.c.Threads().Context(1)
	if ctx.State != hwthread.Disabled {
		t.Fatal("caller not disabled")
	}
	if d := hwthread.ReadDescriptor(r.mem, 0x40000); d.Cause != hwthread.ExcTDTFault {
		t.Fatalf("descriptor %+v", d)
	}
}

func TestInvtidInstructionRefreshesTranslation(t *testing.T) {
	r := newRig(4, 2)
	prog := asm.MustAssemble("p", `
main:
	movi r1, 0
	start r1        ; caches vtid 0 -> ptid 1
	movi r2, 0
	invtid r2, r2   ; drop cached translation of vtid 0
	start r1        ; re-reads TDT: now ptid 2
	halt
`)
	child := asm.MustAssemble("c", "main:\n\tmovi r5, 1\n\thalt")
	r.c.BindProgram(0, prog, "main")
	r.c.BindProgram(1, child, "main")
	r.c.BindProgram(2, child, "main")
	r.grantTDT(0, 0x100000, 0, 1, hwthread.PermStart|hwthread.PermStop)
	// Redirect the TDT row inside simulated time, between the first start
	// (t≈21) and the invtid (t≈27).
	r.eng.At(23, "tdt-rewrite", func() {
		hwthread.WriteTDTEntry(r.mem, 0x100000, 0, hwthread.Entry{PTID: 2, Perm: hwthread.PermStart})
	})
	r.c.BootStart(0)
	r.run(t, 1000)
	if r.c.Threads().Context(2).Regs.GPR[5] != 1 {
		t.Fatal("post-invtid start did not use fresh mapping")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Cycles, uint64) {
		r := newRig(8, 2)
		prog := asm.MustAssemble("d", `
main:
	movi r1, 0
	movi r2, 50
loop:
	addi r1, r1, 1
	st [r3+4096], r1
	ld r4, [r3+4096]
	blt r1, r2, loop
	halt
`)
		for i := 0; i < 5; i++ {
			r.c.BindProgram(hwthread.PTID(i), prog, "main")
			r.c.BootStart(hwthread.PTID(i))
		}
		r.eng.Run(0)
		return r.eng.Now(), r.c.Retired()
	}
	t1, i1 := run()
	t2, i2 := run()
	if t1 != t2 || i1 != i2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", t1, i1, t2, i2)
	}
}

func TestBindAndBootErrors(t *testing.T) {
	r := newRig(2, 2)
	prog := asm.MustAssemble("p", "main:\n\thalt")
	if err := r.c.BindProgram(99, prog, "main"); err == nil {
		t.Fatal("bind to bad ptid")
	}
	if err := r.c.BindProgram(0, prog, "nolabel"); err == nil {
		t.Fatal("bind to bad label")
	}
	if err := r.c.BootStart(99); err == nil {
		t.Fatal("boot bad ptid")
	}
	if err := r.c.BootStart(0); err == nil {
		t.Fatal("boot without program")
	}
	if err := r.c.BindProgram(0, prog, "main"); err != nil {
		t.Fatal(err)
	}
	if err := r.c.BootStart(0); err != nil {
		t.Fatal(err)
	}
	if err := r.c.BootStart(0); err != nil {
		t.Fatal("double boot should be a no-op, not an error")
	}
	if err := r.c.StartThreadSupervised(99); err == nil {
		t.Fatal("supervised start of bad ptid")
	}
}

func TestRegisterNativeDuplicatePanics(t *testing.T) {
	r := newRig(2, 2)
	r.c.RegisterNative("x", func(c *Core, t *hwthread.Context) sim.Cycles { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate native accepted")
		}
	}()
	r.c.RegisterNative("x", func(c *Core, t *hwthread.Context) sim.Cycles { return 0 })
}

func TestAccessorsAndStats(t *testing.T) {
	r := newRig(4, 2)
	c := r.c
	if c.ID() != 0 || c.Shard() != r.eng || c.Mem() != r.mem || c.Monitor() != r.mon {
		t.Fatal("accessors")
	}
	if c.Threads().Len() != 4 || c.Pipeline().Slots() != 2 {
		t.Fatal("config")
	}
	if c.StateStore().Live() != 4 {
		t.Fatal("statestore registration")
	}
	if c.Costs().SyscallEntry != 150 {
		t.Fatal("cost defaults")
	}
	if c.Now() != 0 {
		t.Fatal("Now")
	}
	prog := asm.MustAssemble("p", "main:\n\tnop\n\thalt")
	c.BindProgram(0, prog, "main")
	c.BootStart(0)
	r.run(t, 100)
	if c.Starts() != 1 || c.Retired() != 2 {
		t.Fatalf("stats: starts=%d retired=%d", c.Starts(), c.Retired())
	}
}
