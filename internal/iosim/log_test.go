package iosim

import (
	"math/rand"
	"testing"
)

// poolOrder lists the buffer pool's pages from most to least recently
// used.
func poolOrder(d *Device) []PageID {
	var out []PageID
	for n := d.head; n != nil; n = n.next {
		out = append(out, n.page)
	}
	return out
}

// TestLogReplayMatchesDirect charges one mixed sequence straight to a
// device and, split across two logs, to a second device by replaying the
// logs in order: counters and pool contents must come out identical.
func TestLogReplayMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	direct := NewDevice(32, DefaultCostModel())
	replayed := NewDevice(32, DefaultCostModel())
	var first, second Log
	for i := 0; i < 5000; i++ {
		log := &first
		if i >= 2000 {
			log = &second
		}
		p := PageID(rng.Intn(80))
		switch k := rng.Intn(10); {
		case k < 6:
			direct.Access(p)
			log.Access(p)
		case k < 9:
			direct.Write(p)
			log.Write(p)
		default:
			direct.Invalidate(p)
			log.Invalidate(p)
		}
		if rng.Intn(4) == 0 { // runs of one page, coalesced at replay
			direct.Access(p)
			log.Access(p)
		}
	}
	if len(first.ops) == 0 || len(second.ops) == 0 {
		t.Fatal("empty log")
	}
	first.Replay(replayed)
	second.Replay(replayed)
	if len(first.ops) != 0 || len(second.ops) != 0 {
		t.Error("Replay must empty the log")
	}
	if got, want := replayed.Stats(), direct.Stats(); got != want {
		t.Errorf("replayed stats %+v, direct %+v", got, want)
	}
	got, want := poolOrder(replayed), poolOrder(direct)
	if len(got) != len(want) {
		t.Fatalf("pool holds %d pages after replay, %d direct", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pool position %d: page %d after replay, %d direct", i, got[i], want[i])
		}
	}
}
