package bench

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestVerifySharded drives the serial-vs-sharded check with canned
// summaries: a layout that differs only after the first comparison must be
// caught and named, run errors come back wrapped with the experiment id,
// and the hash returned is the oracle's.
func TestVerifySharded(t *testing.T) {
	const oracle = "header\ncore0 seen=5\ncore1 seen=4\n"
	walls := map[[2]int]time.Duration{{1, 1}: 30, {2, 2}: 20, {4, 2}: 25}

	t.Run("identical", func(t *testing.T) {
		run := func(shards, workers int) (string, time.Duration, error) {
			return oracle, walls[[2]int{shards, workers}], nil
		}
		hash, oracleWall, bestWall, err := verifySharded("X1", run, [2]int{1, 1}, [2]int{2, 2}, [2]int{4, 2})
		if err != nil {
			t.Fatal(err)
		}
		if hash != summaryHash(oracle) {
			t.Fatalf("hash %016x, want the oracle's %016x", hash, summaryHash(oracle))
		}
		if oracleWall != 30 || bestWall != 20 {
			t.Fatalf("walls oracle=%d best=%d, want 30 and 20", oracleWall, bestWall)
		}
	})

	t.Run("late divergence", func(t *testing.T) {
		bad := "header\ncore0 seen=5\ncore1 seen=3\n"
		run := func(shards, workers int) (string, time.Duration, error) {
			if shards == 4 {
				return bad, 0, nil
			}
			return oracle, 0, nil
		}
		_, _, _, err := verifySharded("X1", run, [2]int{1, 1}, [2]int{2, 2}, [2]int{4, 2})
		if err == nil {
			t.Fatal("diverging layout passed")
		}
		for _, want := range []string{
			"X1", "DETERMINISM VIOLATION", "shards=4 workers=2",
			fmt.Sprintf("%016x", summaryHash(oracle)), fmt.Sprintf("%016x", summaryHash(bad)),
			"line 3", `"core1 seen=4"`, `"core1 seen=3"`,
		} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}
	})

	t.Run("run error", func(t *testing.T) {
		boom := errors.New("boom")
		run := func(shards, workers int) (string, time.Duration, error) {
			if workers == 2 {
				return "", 0, boom
			}
			return oracle, 0, nil
		}
		_, _, _, err := verifySharded("X1", run, [2]int{1, 1}, [2]int{2, 2})
		if !errors.Is(err, boom) {
			t.Fatalf("error %v does not wrap the run's error", err)
		}
		if !strings.HasPrefix(err.Error(), "X1 shards=2 workers=2: ") {
			t.Fatalf("error %q is not prefixed with the experiment and layout", err)
		}
	})
}
