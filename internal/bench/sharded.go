package bench

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"
)

// verifySharded is the one serial-vs-sharded check (DESIGN.md §12): it
// calls run once per {shards, workers} layout and requires every summary to
// be byte-identical to the first layout's, the oracle. It returns the
// oracle's summary hash, the oracle's wall time, and the best wall time of
// the other layouts (the oracle's own when there are none).
func verifySharded(id string, run func(shards, workers int) (summary string, wall time.Duration, err error),
	layouts ...[2]int) (hash uint64, oracleWall, bestWall time.Duration, err error) {
	var oracle string
	for i, l := range layouts {
		sum, wall, err := run(l[0], l[1])
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%s shards=%d workers=%d: %w", id, l[0], l[1], err)
		}
		if i == 0 {
			oracle, oracleWall, bestWall = sum, wall, wall
			continue
		}
		if sum != oracle {
			line, want, got := firstDiff(oracle, sum)
			return 0, 0, 0, fmt.Errorf("%s: DETERMINISM VIOLATION — shards=%d workers=%d summary differs from the oracle (shards=%d workers=%d): hashes %016x vs %016x; first difference at line %d: oracle %q, got %q",
				id, l[0], l[1], layouts[0][0], layouts[0][1],
				summaryHash(oracle), summaryHash(sum), line, want, got)
		}
		if i == 1 || wall < bestWall {
			bestWall = wall
		}
	}
	return summaryHash(oracle), oracleWall, bestWall, nil
}

// firstDiff returns the 1-based number of the first line where a and b
// differ, and that line of each ("" past the end of one of them).
func firstDiff(a, b string) (line int, la, lb string) {
	as, bs := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; ; i++ {
		la, lb = "", ""
		if i < len(as) {
			la = as[i]
		}
		if i < len(bs) {
			lb = bs[i]
		}
		if la != lb || i >= len(as) || i >= len(bs) {
			return i + 1, la, lb
		}
	}
}

func summaryHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
