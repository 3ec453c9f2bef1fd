package tmk_test

import (
	"testing"

	"repro/internal/apps"
	_ "repro/internal/apps/all"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// TestGroupSpanningBothOwners pins two adaptive cells whose dynamic page
// groups come to hold homeless and home units at once, so that faults
// fetch one group from both owners: Barnes/small and Water/small at 8
// processors, on ideal with the contention gate held open. The digest
// covers the whole Result; the counts are there to read a failure by.
func TestGroupSpanningBothOwners(t *testing.T) {
	pins := []struct {
		app                       string
		time                      sim.Duration
		messages, bytes, switches int
		digest                    string
	}{
		{"Barnes", 18337710 * sim.Nanosecond, 436, 251956, 2,
			"ac80bbcc52d4a973c38c645f989af19d09f65cb7f65f7903c70d113df56acd89"},
		{"Water", 107966075 * sim.Nanosecond, 3167, 750616, 2,
			"fa4b80109d66ad3e054f5a6d8ed627637bb1be0ee4be768494101f360c31f4eb"},
	}
	for _, pin := range pins {
		t.Run(pin.app, func(t *testing.T) {
			e, ok := apps.Lookup(pin.app, "small")
			if !ok {
				t.Fatalf("%s/small is not registered", pin.app)
			}
			w := e.Make(8)
			// The segment and locks apps.NewSystem would give it.
			sys, err := tmk.NewSystemGateOpen(tmk.Config{
				Procs: 8, Dynamic: true, Protocol: "adaptive",
				SegmentBytes: w.SegmentBytes() + 64*mem.PageSize, Locks: w.Locks(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Release()
			w.Prepare(sys)
			res := sys.Run(w.Body)
			if err := w.Check(); err != nil {
				t.Fatal(err)
			}
			if res.Time != pin.time || res.Messages != pin.messages || res.Bytes != pin.bytes || res.ProtocolSwitches != pin.switches {
				t.Errorf("%v, %d messages, %d bytes, %d switches; want %v, %d, %d, %d",
					res.Time, res.Messages, res.Bytes, res.ProtocolSwitches, pin.time, pin.messages, pin.bytes, pin.switches)
			}
			if d := res.Digest(); d != pin.digest {
				t.Errorf("digest %s, want %s", d, pin.digest)
			}
		})
	}
}
