package machine

import (
	"encoding/binary"
	"fmt"
	"math"

	"ap1000plus/internal/mc"
	"ap1000plus/internal/mem"
)

// CregSpaceBase is the logical address of cell-local communication
// register 0. "128 4-byte communication registers for each MC are
// allocated in shared memory space" (S4.4): a remote store whose
// destination falls in [CregSpaceBase, CregSpaceBase+512) lands in
// the destination cell's register file instead of DRAM.
const CregSpaceBase mem.Addr = 0xC000_0000

// CregAddr returns the shared-space address of communication register
// idx on any cell (the owning cell is chosen by the store's
// destination cell ID).
func CregAddr(idx int) mem.Addr {
	if idx < 0 || idx >= mc.NumCommRegs {
		panic(fmt.Sprintf("machine: communication register %d out of range", idx))
	}
	return CregSpaceBase + mem.Addr(idx*4)
}

// deliverCreg writes an arriving 4- or 8-byte payload into the
// communication register file, setting p-bits. The sanitizer treats
// registers as pure synchronization: the executing thread's clock is
// released into the register's p-bit channel ahead of the store, and
// a LoadCreg acquires it — the store/load handshake of S4.4.
func (c *Cell) deliverCreg(addr mem.Addr, payload *mem.Payload, exec int) bool {
	off := addr - CregSpaceBase
	if off%4 != 0 || off/4 >= mc.NumCommRegs {
		c.OS.fault(fmt.Errorf("machine: cell %d: bad communication register address %#x", c.id, addr))
		return false
	}
	idx := int(off / 4)
	sanStore := func(width int) {
		if s := c.machine.san; s != nil && exec >= 0 {
			s.CregStore(exec, int(c.id), idx, width)
		}
	}
	size := payload.Size()
	switch size {
	case 4:
		data, ok := payload.Bytes()
		if !ok {
			c.OS.fault(fmt.Errorf("machine: cell %d: 4-byte register store needs byte data", c.id))
			return false
		}
		sanStore(1)
		c.Cregs.Store32(idx, binary.LittleEndian.Uint32(data))
		return true
	case 8:
		if idx%2 != 0 || idx+1 >= mc.NumCommRegs {
			c.OS.fault(fmt.Errorf("machine: cell %d: 8-byte register store needs an even register below %d, got %d", c.id, mc.NumCommRegs-1, idx))
			return false
		}
		if vals, ok := payload.Float64s(); ok {
			sanStore(2)
			c.Cregs.Store64(idx, math.Float64bits(vals[0]))
			return true
		}
		if data, ok := payload.Bytes(); ok {
			sanStore(2)
			c.Cregs.Store64(idx, binary.LittleEndian.Uint64(data))
			return true
		}
		c.OS.fault(fmt.Errorf("machine: cell %d: unsupported register payload", c.id))
		return false
	default:
		c.OS.fault(fmt.Errorf("machine: cell %d: communication registers accept 4- or 8-byte accesses, got %d", c.id, size))
		return false
	}
}
