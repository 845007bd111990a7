package vclock

import (
	"sync"
	"sync/atomic"
)

// Affinity pins worker clocks to shards: a clock seen for the first time is
// dealt the next shard round-robin and keeps it, so a worker's operations
// stay on one shard's cache lines. The zero value is ready to use; an
// Affinity holds a sync.Map and must not be copied. Lookups after a
// clock's first allocate nothing.
type Affinity struct {
	shard sync.Map // *Clock -> int
	rr    atomic.Uint64
}

// Shard returns c's shard among n.
func (a *Affinity) Shard(c *Clock, n int) int {
	if n == 1 {
		return 0
	}
	if v, ok := a.shard.Load(c); ok {
		return v.(int)
	}
	i := int((a.rr.Add(1) - 1) % uint64(n))
	v, _ := a.shard.LoadOrStore(c, i)
	return v.(int)
}
