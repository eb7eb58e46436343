package kernel

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"nocs/internal/faultinject"
	"nocs/internal/sim"
	"nocs/internal/snapshot"
	"nocs/internal/workload"
)

// streamServer builds one discipline for the differential test: FCFS, PS
// with a hardware-thread cap and injected faults, or timeslicing.
func streamServer(kind string, eng *sim.Shard, onComplete func(Completion)) interface {
	QueueServer
	SubmitAll([]workload.Request)
} {
	switch kind {
	case "fcfs":
		return NewFCFS(eng, 2, 120, onComplete)
	case "ps":
		s := NewPS(eng, 2, 60, onComplete)
		s.MaxActive = 5
		s.Faults = faultinject.New(faultinject.Plan{Seed: 0x5eed, RequestFaultP: 0.1, RequestFaultPenalty: 900})
		return s
	case "ts":
		return NewTimeslice(eng, 2, 400, 90, onComplete)
	}
	panic("unknown kind " + kind)
}

// tiedShuffledReqs draws n requests whose arrivals fall on a coarse grid
// (so many tie) and returns them in a random order, IDs unchanged.
func tiedShuffledReqs(n int) []workload.Request {
	rng := sim.NewRNG(23)
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = workload.Request{
			ID:      i,
			Arrival: sim.Cycles(5 + rng.Intn(n/3)*700),
			Demand:  sim.Cycles(100 + rng.Intn(3000)),
		}
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		reqs[i], reqs[j] = reqs[j], reqs[i]
	}
	return reqs
}

// TestSubmitAllMatchesSubmitLoop is the differential check on arrival
// streaming: SubmitAll (one queued arrival per stream, reserved sequence
// numbers) must give the completion stream, event count and end time of
// one Submit per request, on sorted traces and on shuffled traces with
// tied arrivals.
func TestSubmitAllMatchesSubmitLoop(t *testing.T) {
	traces := []struct {
		name string
		reqs []workload.Request
	}{
		{"sorted", queueReqs()},
		{"shuffled-tied", tiedShuffledReqs(300)},
		{"single-request", []workload.Request{{ID: 7, Arrival: 3, Demand: 50}}},
		{"all-same-cycle", []workload.Request{{ID: 2, Arrival: 9, Demand: 40}, {ID: 0, Arrival: 9, Demand: 40}, {ID: 1, Arrival: 9, Demand: 10}}},
		{"at-cycle-zero", []workload.Request{{ID: 0, Arrival: 0, Demand: 1}, {ID: 1, Arrival: 0, Demand: 1}}},
		{"empty", nil},
	}
	type outcome struct {
		comps []compRec
		ran   uint64
		now   sim.Cycles
	}
	run := func(kind string, reqs []workload.Request, streamed bool) outcome {
		var o outcome
		eng := sim.SoloShard(sim.NewEngine(nil))
		srv := streamServer(kind, eng, func(c Completion) {
			o.comps = append(o.comps, compRec{c.Req.ID, c.Finish, c.Latency})
		})
		if streamed {
			srv.SubmitAll(reqs)
		} else {
			for _, r := range reqs {
				srv.Submit(r)
			}
		}
		eng.Run(0)
		o.ran, o.now = eng.Ran(), eng.Now()
		return o
	}
	for _, kind := range []string{"fcfs", "ps", "ts"} {
		for _, tr := range traces {
			reqs := tr.reqs
			t.Run(kind+"/"+tr.name, func(t *testing.T) {
				want := run(kind, reqs, false)
				got := run(kind, reqs, true)
				if len(want.comps) != len(reqs) {
					t.Fatalf("Submit loop completed %d of %d", len(want.comps), len(reqs))
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("SubmitAll diverged from a Submit loop: ran %d vs %d, end %d vs %d, %d vs %d completions",
						got.ran, want.ran, got.now, want.now, len(got.comps), len(want.comps))
				}
			})
		}
	}
}

// TestQueueServerSnapshotBytesPinned pins the five mid-run checkpoints of
// TestQueueServerSnapshotRoundTrip to fixed digests. Round-tripping alone
// would accept any self-consistent format; the digests show the arrival
// codec writes the original one — one (at, seq, request) record per
// undelivered arrival — whichever way the arrivals were submitted.
func TestQueueServerSnapshotBytesPinned(t *testing.T) {
	pins := []struct {
		kind   string
		faults bool
		sha256 string
	}{
		{"fcfs", false, "892a801127f13491be05ff89a910afd50bb89866ea441d1661623a17aac872b6"},
		{"fcfs", true, "68ee6183bbbc34d3315ad0091ef49be2563a6a407f91fcba19bbd1180149a8b9"},
		{"ps", false, "37eb456128e74fd5a0e1718f0eaf456af87d717c7f054a0e2b5022a6f1d347c2"},
		{"ps", true, "be2debace7dd323c150a9e071b9b91cddfd52fea557a5bfce207ed952c35750b"},
		{"ts", false, "84bffb761f49ab83b9e205492cd1ef472406597621f35a6a03b279736e71ac10"},
	}
	for _, p := range pins {
		var sink []compRec
		eng := sim.SoloShard(sim.NewEngine(nil))
		srv, comps := buildQueueCase(p.kind, eng, p.faults, &sink)
		srv.(interface{ SubmitAll([]workload.Request) }).SubmitAll(queueReqs())
		eng.RunUntil(120_000)
		b := snapshot.NewBuilder()
		if err := SnapshotShard(b, eng, comps...); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != p.sha256 {
			t.Errorf("%s faults=%v: checkpoint sha256 %s, pinned %s", p.kind, p.faults, got, p.sha256)
		}
	}
}

// TestSnapshotMixedSubmissions: arrivals from Submit and from two
// SubmitAll streams on one server serialize as one merged, (at, seq)-ordered
// arrival list — the bytes of the same submissions made one event each —
// and the restored run continues the straight-through completion stream.
func TestSnapshotMixedSubmissions(t *testing.T) {
	reqs := queueReqs()
	submit := func(srv interface {
		QueueServer
		SubmitAll([]workload.Request)
	}, streamed bool) {
		parts := [][]workload.Request{reqs[:100], reqs[100:110], reqs[110:]}
		for i, part := range parts {
			if streamed && i != 1 {
				srv.SubmitAll(part)
				continue
			}
			for _, r := range part {
				srv.Submit(r)
			}
		}
	}
	checkpoint := func(streamed bool) ([]byte, []compRec, sim.Cycles) {
		var comps []compRec
		eng := sim.SoloShard(sim.NewEngine(nil))
		srv, parts := buildQueueCase("ps", eng, true, &comps)
		submit(srv.(interface {
			QueueServer
			SubmitAll([]workload.Request)
		}), streamed)
		eng.RunUntil(120_000)
		b := snapshot.NewBuilder()
		if err := SnapshotShard(b, eng, parts...); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		eng.Run(0)
		return buf.Bytes(), comps, eng.Now()
	}
	want, full, end := checkpoint(false)
	got, _, _ := checkpoint(true)
	if !bytes.Equal(got, want) {
		t.Fatalf("mixed Submit/SubmitAll checkpoint differs from one event per arrival (%d vs %d bytes)", len(got), len(want))
	}

	snap, err := snapshot.Decode(got)
	if err != nil {
		t.Fatal(err)
	}
	var suffix []compRec
	eng := sim.SoloShard(sim.NewEngine(nil))
	_, parts := buildQueueCase("ps", eng, true, &suffix)
	if err := RestoreShard(snap, eng, parts...); err != nil {
		t.Fatal(err)
	}
	eng.Run(0)
	if done := len(full) - len(suffix); done < 0 || !reflect.DeepEqual(suffix, full[done:]) || eng.Now() != end {
		t.Fatalf("restored run diverged: %d suffix completions of %d, end %d vs %d", len(suffix), len(full), eng.Now(), end)
	}
}

// TestRunOpenLoopSameServerTwice: RunOpenLoop puts the caller's OnComplete
// back when it returns, so a second run on the same server reports only its
// own completions and does not call the first run's collector.
func TestRunOpenLoopSameServerTwice(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	userCalls := 0
	user := func(Completion) { userCalls++ }
	srv := NewPS(eng, 2, 10, user)
	first := RunOpenLoop(eng, srv, []workload.Request{{ID: 0, Arrival: 1, Demand: 10}, {ID: 1, Arrival: 2, Demand: 20}})
	if reflect.ValueOf(srv.OnComplete).Pointer() != reflect.ValueOf(user).Pointer() {
		t.Fatal("RunOpenLoop left its collector installed as OnComplete")
	}
	second := RunOpenLoop(eng, srv, []workload.Request{{ID: 2, Arrival: eng.Now() + 1, Demand: 5}})
	if len(first) != 2 || len(second) != 1 || second[0].Req.ID != 2 {
		t.Fatalf("first run %d completions, second %d; want 2 and 1 (the second run's own)", len(first), len(second))
	}
	if userCalls != 3 {
		t.Fatalf("caller's OnComplete saw %d completions, want 3", userCalls)
	}

	srv.OnComplete = nil
	RunOpenLoop(eng, srv, []workload.Request{{ID: 3, Arrival: eng.Now() + 1, Demand: 5}})
	if srv.OnComplete != nil {
		t.Fatal("RunOpenLoop replaced a nil OnComplete and did not restore it")
	}
}

// TestRestoreRejectsBadArrivalRecords: a checkpoint is outside input, so
// arrival records that are out of (at, seq) order, repeat a key, or carry a
// sequence number the restored counter would hand out again fail the
// restore with an error instead of panicking or reordering arrivals later.
func TestRestoreRejectsBadArrivalRecords(t *testing.T) {
	type rec struct {
		at  sim.Cycles
		seq uint64
	}
	encode := func(counter uint64, recs []rec) *snapshot.Snapshot {
		b := snapshot.NewBuilder()
		w := b.Section("srv/fcfs")
		snapshotRequests(w, nil)
		w.U64(0).U64(0).U64(0)
		w.I64s(nil)
		items := make([]streamItem, len(recs))
		for i, r := range recs {
			items[i] = streamItem{seq: r.seq, r: workload.Request{ID: i, Arrival: r.at, Demand: 50}}
		}
		writeArrivals(w, items)
		w.Len(0)
		b.Section("engine").I64(5).U64(counter).U64(0).Len(0)
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		snap, err := snapshot.Decode(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	restore := func(counter uint64, recs []rec) ([]Completion, error) {
		var done []Completion
		eng := sim.SoloShard(sim.NewEngine(nil))
		srv := NewFCFS(eng, 1, 0, func(c Completion) { done = append(done, c) })
		if err := RestoreShard(encode(counter, recs), eng, Component{Name: "fcfs", C: srv}); err != nil {
			return nil, err
		}
		eng.Run(0)
		return done, nil
	}

	if done, err := restore(3, []rec{{10, 0}, {10, 2}, {20, 1}}); err != nil || len(done) != 3 {
		t.Fatalf("valid records: %d completions, err %v; want 3, nil", len(done), err)
	}
	for _, bad := range []struct {
		name    string
		counter uint64
		recs    []rec
	}{
		{"swapped seqs at one time", 3, []rec{{10, 1}, {10, 0}, {20, 2}}},
		{"time goes backwards", 3, []rec{{20, 0}, {10, 1}}},
		{"repeated key", 3, []rec{{10, 1}, {10, 1}}},
		{"seq at the counter", 3, []rec{{10, 0}, {20, 3}}},
		{"seq above the counter", 3, []rec{{10, 0}, {20, 1}, {30, 9}}},
		{"first arrival before now", 3, []rec{{4, 0}, {20, 1}}},
	} {
		if _, err := restore(bad.counter, bad.recs); err == nil {
			t.Errorf("%s: restore succeeded, want an error", bad.name)
		}
	}
}
