package machine

import (
	"math"
	"testing"

	"ap1000plus/internal/mc"
	"ap1000plus/internal/mem"
)

func TestCregAddrBounds(t *testing.T) {
	if CregAddr(0) != CregSpaceBase {
		t.Errorf("CregAddr(0) = %#x", CregAddr(0))
	}
	if CregAddr(5) != CregSpaceBase+20 {
		t.Errorf("CregAddr(5) = %#x", CregAddr(5))
	}
	for _, bad := range []int{-1, mc.NumCommRegs} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CregAddr(%d) should panic", bad)
				}
			}()
			CregAddr(bad)
		}()
	}
}

// TestRemoteStoreToCreg drives a remote store into another cell's
// communication register through the full machine path (remote access
// queue -> T-net -> register file with p-bit).
func TestRemoteStoreToCreg(t *testing.T) {
	m := newMachine(t, Config{})
	seg, data, _ := m.Cell(0).AllocFloat64("v", 2)
	err := m.Run(func(c *Cell) error {
		switch c.ID() {
		case 0:
			data[0] = 2.75
			c.RemoteStore(2, CregAddr(10), seg.Base(), 8)
			c.FenceRemoteStores()
		case 2:
			bits := c.Cregs.Load64(10) // blocks until the p-bit is set
			if got := math.Float64frombits(bits); got != 2.75 {
				t.Errorf("register value = %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRemoteStore32ToCreg(t *testing.T) {
	m := newMachine(t, Config{})
	seg, raw, _ := m.Cell(1).AllocBytes("tok", 4)
	err := m.Run(func(c *Cell) error {
		switch c.ID() {
		case 1:
			raw[0], raw[1], raw[2], raw[3] = 0x78, 0x56, 0x34, 0x12
			c.RemoteStore(3, CregAddr(7), seg.Base(), 4)
		case 3:
			if v := c.Cregs.Load32(7); v != 0x12345678 {
				t.Errorf("register = %#x", v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCregBadAddressFaults(t *testing.T) {
	m := newMachine(t, Config{})
	fseg, _, _ := m.Cell(0).AllocFloat64("v", 2)
	bseg, _, _ := m.Cell(0).AllocBytes("b", 8)
	err := m.Run(func(c *Cell) error {
		if c.ID() != 0 {
			return nil
		}
		// Unaligned register address: logged as a fault, dropped.
		c.RemoteStore(1, CregSpaceBase+2, bseg.Base(), 4)
		// Out-of-range register index.
		c.RemoteStore(1, CregSpaceBase+mem.Addr(mc.NumCommRegs*4), bseg.Base(), 4)
		// Wrong size (registers accept 4 or 8 bytes).
		c.RemoteStore(1, CregAddr(0), fseg.Base(), 16)
		// 8-byte store to the last register: its pair runs off the file.
		c.RemoteStore(1, CregAddr(mc.NumCommRegs-1), bseg.Base(), 8)
		// 8-byte store to an odd register: a pair must start even.
		c.RemoteStore(1, CregAddr(1), bseg.Base(), 8)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Cell(1).OS.Faults()); got != 5 {
		t.Errorf("fault log entries = %d, want 5: %v", got, m.Cell(1).OS.Faults())
	}
	// None of the bad stores may have set a p-bit.
	for idx := 0; idx < mc.NumCommRegs; idx++ {
		if m.Cell(1).Cregs.Present(idx) {
			t.Errorf("register %d unexpectedly present", idx)
		}
	}
}
