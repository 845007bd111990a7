package vclock

import "testing"

func TestAffinityDealsRoundRobinAndPins(t *testing.T) {
	var a Affinity
	clocks := []*Clock{New(), New(), New(), New(), New()}
	for i, c := range clocks {
		if got := a.Shard(c, 3); got != i%3 {
			t.Fatalf("clock %d dealt shard %d, want %d", i, got, i%3)
		}
	}
	for i, c := range clocks {
		if got := a.Shard(c, 3); got != i%3 {
			t.Fatalf("clock %d moved to shard %d, want %d", i, got, i%3)
		}
	}
	if got := a.Shard(New(), 1); got != 0 {
		t.Fatalf("single shard: got %d", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { a.Shard(clocks[2], 3) }); allocs != 0 {
		t.Fatalf("pinned lookup allocates %.1f times", allocs)
	}
}
