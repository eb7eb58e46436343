package main

import "testing"

func results(workload string, traced int, metric string, vals ...float64) []resultFile {
	var out []resultFile
	for i, v := range vals {
		rf := resultFile{Workload: workload, Trace: traced}
		rf.Provenance.Seed = uint64(i + 1)
		rf.Result.Metrics = map[string]metricValue{metric: {Value: v, Unit: "s"}}
		out = append(out, rf)
	}
	return out
}

func testSpec() *spec {
	return &spec{
		Workloads: []workSpec{{Name: "w"}},
		EndToEnd: []metricSpec{
			{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1},
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1},
		},
		PerLayer: []metricSpec{{Name: "sim.events", Unit: "count", Better: "lower"}},
	}
}

func TestCompareFlagsChangeBeyondBound(t *testing.T) {
	sp := testSpec()
	base := results("w", 0, "wall_s", 10, 10.1, 9.9, 10.05, 9.95)
	cases := []struct {
		name string
		next []float64
		want string
	}{
		{"inside the bound", []float64{10.5, 10.6, 10.4, 10.55, 10.45}, statusSame},
		{"beyond the bound", []float64{11.5, 11.6, 11.4, 11.55, 11.45}, statusRegression},
		{"clear gain", []float64{8, 8.1, 7.9, 8.05, 7.95}, statusImproved},
	}
	for _, c := range cases {
		vs := compareRuns(sp, base, results("w", 0, "wall_s", c.next...))
		if len(vs) != 1 || vs[0].Status != c.want {
			t.Errorf("%s: got %+v, want status %q", c.name, vs, c.want)
		}
	}
}

func TestCompareHigherIsBetter(t *testing.T) {
	sp := testSpec()
	base := results("w", 0, "rate", 100, 101, 99, 100.5, 99.5)
	if vs := compareRuns(sp, base, results("w", 0, "rate", 85, 86, 84, 85, 85)); vs[0].Status != statusRegression {
		t.Errorf("a 15%% lower rate passed: %+v", vs[0])
	}
	if vs := compareRuns(sp, base, results("w", 0, "rate", 95, 96, 94, 95, 95)); vs[0].Status != statusSame {
		t.Errorf("a 5%% lower rate was flagged: %+v", vs[0])
	}
}

func TestCompareNoisyBaseIsUnresolved(t *testing.T) {
	sp := testSpec()
	base := results("w", 0, "wall_s", 8, 12, 10, 7, 13) // spread well above the 0.1 bound
	vs := compareRuns(sp, base, results("w", 0, "wall_s", 9.5, 10.5, 10, 9, 11))
	if vs[0].Status != statusUnresolved {
		t.Errorf("got %q, want %q when the base's own spread exceeds the bound", vs[0].Status, statusUnresolved)
	}
	vs = compareRuns(sp, base, results("w", 0, "wall_s", 4, 4.1, 3.9, 4, 4))
	if vs[0].Status != statusImproved {
		t.Errorf("every new run beats every base run, got %q", vs[0].Status)
	}
}

func TestComparePerLayerReportsOnlyChanges(t *testing.T) {
	sp := testSpec()
	base := results("w", 1, "sim.events", 500, 500)
	if vs := compareRuns(sp, base, results("w", 1, "sim.events", 500, 500)); len(vs) != 0 {
		t.Errorf("unchanged count reported: %+v", vs)
	}
	vs := compareRuns(sp, base, results("w", 1, "sim.events", 400, 400))
	if len(vs) != 1 || vs[0].Status != statusChanged || !near(vs[0].Worse, -0.2) {
		t.Errorf("count change: %+v", vs)
	}
}
