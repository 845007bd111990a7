package lockcheck

import (
	"strings"
	"testing"
)

// ruleText is one phrase from each rule's message, by rule number.
var ruleText = map[byte]string{
	'1': "tier order is latchD → latchN → latchS",
	'2': "mu is a leaf lock",
	'3': "second descriptors only via TryLock",
	'4': "only descriptor.mu may be taken under a frame-group lock",
	'5': "leaf on the append path",
	'6': "only WAL shard mutexes may be taken under flushMu",
	'7': "pool shard's free-list mutex is a strict leaf",
}

// expected is the discipline written out from rules 1–7, one row per held
// rank and one cell per wanted rank, in rank order. A cell is
// "<same object>/<other object>": "-" is legal, a digit is the rule that
// always forbids it, "b" after the digit means only a blocking acquisition
// breaks it, and "f" means it breaks the rule unless flushMu is held.
var expected = map[Rank][8]string{
	//            latchD   latchN   latchS   mu     fg.mu  wal.shard wal.flushMu pool.shard
	RankD:        {"1/3b", "-/3b", "-/3b", "-/-", "-/-", "-/-", "-/-", "-/-"},
	RankN:        {"1/3b", "1/3b", "-/3b", "-/-", "-/-", "-/-", "-/-", "-/-"},
	RankS:        {"1/3b", "1/3b", "1/3b", "-/-", "-/-", "-/-", "-/-", "-/-"},
	RankMu:       {"2/2", "2/2", "2/2", "2/2", "2/2", "2/2", "2/2", "2/2"},
	RankFg:       {"4/4", "4/4", "4/4", "-/-", "4/4", "4/4", "4/4", "4/4"},
	RankWALShard: {"5/5", "5/5", "5/5", "5/5", "5/5", "5f/5f", "5/5", "5/5"},
	RankWALFlush: {"6/6", "6/6", "6/6", "6/6", "6/6", "-/-", "6/6", "6/6"},
	RankBMShard:  {"7/7", "7/7", "7/7", "7/7", "7/7", "7/7", "7/7", "7/7"},
}

// TestViolationMatrix checks Violation on every pair of ranks, on the same
// and on another object, blocking and try, with and without flushMu held.
func TestViolationMatrix(t *testing.T) {
	if len(expected) != 8 {
		t.Fatalf("expected matrix has %d rows, want 8", len(expected))
	}
	for held := RankD; held <= RankBMShard; held++ {
		for want := RankD; want <= RankBMShard; want++ {
			same, other, _ := strings.Cut(expected[held][want-1], "/")
			for _, sameObj := range []bool{true, false} {
				cell := other
				if sameObj {
					cell = same
				}
				for _, blocking := range []bool{true, false} {
					for _, flushHeld := range []bool{true, false} {
						rule := byte(0)
						switch {
						case cell == "-":
						case strings.HasSuffix(cell, "b"):
							if blocking {
								rule = cell[0]
							}
						case strings.HasSuffix(cell, "f"):
							if !flushHeld {
								rule = cell[0]
							}
						default:
							rule = cell[0]
						}
						got := Violation(held, sameObj, want, blocking, flushHeld)
						switch {
						case rule == 0 && got != "":
							t.Errorf("%s held (same=%v), %s wanted (blocking=%v, flushHeld=%v): got %q, want legal",
								held, sameObj, want, blocking, flushHeld, got)
						case rule != 0 && !strings.Contains(got, ruleText[rule]):
							t.Errorf("%s held (same=%v), %s wanted (blocking=%v, flushHeld=%v): got %q, want rule %c (%q)",
								held, sameObj, want, blocking, flushHeld, got, rule, ruleText[rule])
						}
					}
				}
			}
		}
	}
}

// TestRankNames pins the names the checkers print.
func TestRankNames(t *testing.T) {
	want := []string{"latchD", "latchN", "latchS", "mu", "fg.mu", "wal.shard", "wal.flushMu", "pool.shard"}
	for i, name := range want {
		if got := (RankD + Rank(i)).String(); got != name {
			t.Errorf("Rank(%d).String() = %q, want %q", i+1, got, name)
		}
	}
	if got := Rank(0).String(); got != "rank?" {
		t.Errorf("Rank(0).String() = %q, want %q", got, "rank?")
	}
}
