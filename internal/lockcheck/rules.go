package lockcheck

// Rank names one kind of latch. The rank constants, their names and the
// rules below are the single statement of the latch discipline: the
// -tags lockcheck runtime checker (lockcheck.go) applies Violation to every
// latch a goroutine holds when it takes another, and the latchorder check
// of spitfire-vet (internal/vet) applies it to every latch held at a call
// site of a shim. A shim is any function that calls Acquire, Acquired or
// Release; a new lock needs one and, if it brings a new rank, a row here.
type Rank int

// The ranks, tier latches first in their acquisition order.
const (
	RankD        Rank = iota + 1 // descriptor.latchD
	RankN                        // descriptor.latchN
	RankS                        // descriptor.latchS
	RankMu                       // descriptor.mu
	RankFg                       // a frame group's fg.mu
	RankWALShard                 // a WAL shard's append mutex
	RankWALFlush                 // the WAL's flushMu
	RankBMShard                  // a buffer-pool shard's free-list mutex
)

var rankNames = [...]string{
	RankD:        "latchD",
	RankN:        "latchN",
	RankS:        "latchS",
	RankMu:       "mu",
	RankFg:       "fg.mu",
	RankWALShard: "wal.shard",
	RankWALFlush: "wal.flushMu",
	RankBMShard:  "pool.shard",
}

func (r Rank) String() string {
	if r > 0 && int(r) < len(rankNames) {
		return rankNames[r]
	}
	return "rank?"
}

func (r Rank) tier() bool { return r >= RankD && r <= RankS }

// acquisition is one latch taken while another is held.
type acquisition struct {
	held      Rank // the latch already held
	sameObj   bool // held is on the object being acquired
	want      Rank // the latch being acquired
	blocking  bool // Lock rather than TryLock
	flushHeld bool // the acquiring thread holds a flushMu
}

// rules is the latch discipline. Each row names one rule and the
// acquisitions it forbids:
//
//  1. Tier latches of one descriptor in rank order latchD → latchN →
//     latchS; skipping a tier is fine, taking a rank at or below one
//     already held on the same descriptor is not.
//  2. mu is a strict leaf: nothing may be acquired while any mu is held.
//  3. A blocking Lock of a tier latch is illegal while a tier latch of
//     another descriptor is held; a TryLock of a second descriptor is the
//     sanctioned escape hatch.
//  4. A frame group's fg.mu may be taken under tier latches; the only
//     acquisition allowed while it is held is descriptor.mu (the
//     fine-grained load path pins the NVM backing under fg.mu, legal
//     because mu is a strict leaf).
//  5. A WAL shard mutex is a leaf on the append path. Shard→shard is legal
//     only under flushMu, where the combining flusher drains every shard
//     in index order.
//  6. Under flushMu only WAL shard mutexes may be acquired.
//  7. A buffer-pool shard's free-list mutex is a strict leaf: it may be
//     taken under tier latches (allocation runs under latchD or latchN),
//     but nothing, not even another pool shard, while it is held.
//     Work-stealing drops one shard's mutex before probing the next.
var rules = [...]struct {
	msg    string
	breaks func(a acquisition) bool
}{
	{"tier order is latchD → latchN → latchS", func(a acquisition) bool {
		return a.sameObj && a.held.tier() && a.want.tier() && a.held >= a.want
	}},
	{"mu is a leaf lock: acquire nothing under it", func(a acquisition) bool {
		return a.held == RankMu
	}},
	{"second descriptors only via TryLock", func(a acquisition) bool {
		return !a.sameObj && a.blocking && a.held.tier() && a.want.tier()
	}},
	{"only descriptor.mu may be taken under a frame-group lock", func(a acquisition) bool {
		return a.held == RankFg && a.want != RankMu
	}},
	{"a WAL shard mutex is a leaf on the append path: shard→shard only under flushMu", func(a acquisition) bool {
		return a.held == RankWALShard && !(a.want == RankWALShard && a.flushHeld)
	}},
	{"only WAL shard mutexes may be taken under flushMu", func(a acquisition) bool {
		return a.held == RankWALFlush && a.want != RankWALShard
	}},
	{"a pool shard's free-list mutex is a strict leaf: drop one shard before probing the next", func(a acquisition) bool {
		return a.held == RankBMShard
	}},
}

// Violation returns the message of the rule broken by acquiring want while
// held is held, or "" when the acquisition is legal. sameObj says whether
// held is on the object being acquired, blocking whether the acquisition
// waits (Lock) or not (TryLock), and flushHeld whether the acquiring thread
// holds a flushMu.
func Violation(held Rank, sameObj bool, want Rank, blocking, flushHeld bool) string {
	a := acquisition{held: held, sameObj: sameObj, want: want, blocking: blocking, flushHeld: flushHeld}
	for _, r := range rules {
		if r.breaks(a) {
			return r.msg
		}
	}
	return ""
}
