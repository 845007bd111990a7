// Package lockcheck is a vet fixture standing in for the runtime latch
// checker: calls of these functions mark their callers as latch shims.
// The rank values match the real package's.
package lockcheck

type Rank int

const (
	RankD Rank = iota + 1
	RankN
	RankS
	RankMu
	RankFg
	RankWALShard
	RankWALFlush
	RankBMShard
)

func Acquire(obj any, rank Rank) {}

func Acquired(obj any, rank Rank) {}

func Release(obj any, rank Rank) {}
