// Quickstart: two hardware threads communicating with the paper's
// monitor/mwait and start/stop instructions — no interrupts, no scheduler.
//
// Thread 0 (consumer) monitors a mailbox word and blocks in mwait.
// Thread 1 (producer) computes three values, stores each into the mailbox,
// and finally halts. Every store wakes the consumer in ~20 cycles (the
// pipeline-depth start latency of an RF-resident thread).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"nocs/internal/asm"
	"nocs/internal/hwthread"
	"nocs/internal/machine"
	"nocs/internal/sim"
)

const mailbox = 0x1000

func main() {
	m := machine.New()
	core := m.Core(0)

	consumer := asm.MustAssemble("consumer", `
main:
	movi r1, 0x1000    ; mailbox address
	movi r3, 0         ; sum of received values
	movi r4, 0         ; messages received
loop:
	monitor r1         ; arm the watch
	mwait              ; block until the producer stores
	ld r2, [r1+0]
	add r3, r3, r2
	addi r4, r4, 1
	movi r5, 3
	blt r4, r5, loop
	halt
`)

	producer := asm.MustAssemble("producer", `
main:
	movi r1, 0x1000
	movi r2, 0
	movi r5, 0         ; loop counter — registers only happen to boot as 0,
	                   ; a supervisor may hand this thread a dirty register
	                   ; file, so never rely on implicit zeroing
	movi r6, 10
	movi r7, 3
produce:
	addi r2, r2, 7     ; "compute" the next value
	st [r1+0], r2      ; store wakes the consumer
	; spin briefly so the consumer drains before the next value
	movi r8, 0
pause:
	addi r8, r8, 1
	blt r8, r6, pause
	addi r5, r5, 1
	blt r5, r7, produce
	halt
`)

	if err := core.BindProgram(0, consumer, "main"); err != nil {
		log.Fatal(err)
	}
	if err := core.BindProgram(1, producer, "main"); err != nil {
		log.Fatal(err)
	}

	// Trace every monitor wakeup.
	core.OnWake = func(p hwthread.PTID, addr int64, at sim.Cycles) {
		fmt.Printf("  t=%-6d ptid %d woke on write to %#x\n", at, p, addr)
	}

	fmt.Println("consumer program:")
	fmt.Print(indent(consumer.Disassemble()))
	fmt.Println("\nrunning...")

	if err := core.BootStart(0); err != nil {
		log.Fatal(err)
	}
	if err := core.BootStart(1); err != nil {
		log.Fatal(err)
	}
	m.Run(0)
	if err := m.Fatal(); err != nil {
		log.Fatal(err)
	}

	c := core.Threads().Context(0)
	fmt.Printf("\ndone at t=%v\n", m.Now())
	fmt.Printf("consumer received %d messages, sum=%d (want 7+14+21=42)\n",
		c.Regs.GPR[4], c.Regs.GPR[3])
	fmt.Printf("consumer wakeups: %d, instructions retired machine-wide: %d\n",
		c.Wakeups, m.Retired())
	mc := m.Monitor().Counters()
	fmt.Printf("monitor engine: %d wakeups delivered (%d without blocking)\n", mc.Wakeups, mc.Immediate)
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "    " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			lines = append(lines, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		lines = append(lines, cur)
	}
	return lines
}
