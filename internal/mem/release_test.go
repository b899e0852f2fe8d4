package mem

import (
	"encoding/binary"
	"testing"
)

// releaseSizes are the RAM sizes FuzzRelease draws from: a size that ends
// mid-page, a small page multiple, and the machines' 1 MiB default.
var releaseSizes = []int{3*pageSize + 100, 16 * pageSize, 1 << 20}

// staleHooks records whether a hook armed before Release ever runs after it.
type staleHooks struct{ fired bool }

func (s *staleHooks) ObserveLoad(uint32, int)  { s.fired = true }
func (s *staleHooks) ObserveStore(uint32, int) { s.fired = true }
func (s *staleHooks) ObserveLock(int, bool)    { s.fired = true }
func (s *staleHooks) ObserveJoinDone(uint32)   { s.fired = true }
func (s *staleHooks) CoreID() uint32           { s.fired = true; return 7 }
func (s *staleHooks) NumCores() uint32         { s.fired = true; return 8 }
func (s *staleHooks) SpawnArg(uint32)          { s.fired = true }
func (s *staleHooks) Spawn(uint32)             { s.fired = true }
func (s *staleHooks) LastSpawn() uint32        { s.fired = true; return 3 }
func (s *staleHooks) Running(uint32) uint32    { s.fired = true; return 1 }

// fuzzAddr turns a selector and a raw value into an address that is
// interesting for a memory of the given size: anywhere in or just past RAM,
// at the top of RAM, straddling a page boundary, or on a device page.
func fuzzAddr(sel uint8, raw uint32, size int) uint32 {
	top := uint32(size)
	switch sel % 6 {
	case 0:
		return raw % (top + 8)
	case 1:
		return top - 1 - raw%4
	case 2:
		pages := top / pageSize
		if pages == 0 {
			pages = 1
		}
		return (raw%pages+1)*pageSize - 1 - raw%3
	case 3:
		return LockBase + raw%(4*LockCount)
	case 4:
		return SMPBase + raw%0x100
	default:
		return ConsoleBase + raw%12
	}
}

// FuzzRelease drives a memory through arbitrary stores, program loads,
// console floods, device-page traffic and armed hooks, releases it, and
// checks that New of the same size then hands out a memory indistinguishable
// from a freshly allocated one.
func FuzzRelease(f *testing.F) {
	op := func(op, sel uint8, raw, v uint32) []byte {
		b := []byte{op, sel, 0, 0, 0, 0, 0, 0, 0, 0}
		binary.BigEndian.PutUint32(b[2:], raw)
		binary.BigEndian.PutUint32(b[6:], v)
		return b
	}
	seed := func(size uint8, ops ...[]byte) {
		b := []byte{size}
		for _, o := range ops {
			b = append(b, o...)
		}
		f.Add(b)
	}
	seed(2, op(2, 0, 0x10, 0xdeadbeef), op(0, 1, 0, 0xff), op(1, 2, 4, 0xffff), op(2, 2, 7, 1))
	seed(0, op(3, 2, 1, 100), op(4, 5, 0, 12345), op(5, 3, 8, 0), op(6, 4, 0x0c, 0x40))
	seed(1, op(7, 0, 64, 9), op(8, 0, 0, 0), op(9, 0, 0, 0), op(2, 0, 256, 3), op(0, 1, 1, 4))
	seed(2, op(6, 3, 4, 1), op(3, 0, 0x8000, 5000), op(4, 5, 0, 7))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		size := releaseSizes[int(ops[0])%len(releaseSizes)]
		m := New(size)
		hooks := &staleHooks{}
		for p := 1; p+10 <= len(ops); p += 10 {
			op, sel := ops[p], ops[p+1]
			raw := binary.BigEndian.Uint32(ops[p+2:])
			v := binary.BigEndian.Uint32(ops[p+6:])
			addr := fuzzAddr(sel, raw, size)
			switch op % 10 {
			case 0:
				m.Store8(addr, uint8(v))
			case 1:
				m.Store16(addr, uint16(v))
			case 2:
				m.Store32(addr, v)
			case 3:
				data := make([]byte, v%(2*pageSize))
				for i := range data {
					data[i] = uint8(i) | 1
				}
				m.LoadProgram(addr, data)
			case 4:
				m.SetConsoleLimit(int(v % 16))
				for i := 0; i < 8; i++ {
					m.Store32(ConsolePutInt, v)
				}
			case 5:
				m.Load32(addr &^ 3)
			case 6:
				m.SetSMP(hooks)
				m.Store32(addr&^3, v)
				m.Load32(addr &^ 3)
			case 7:
				m.SetFaultPlan(&FaultPlan{FailNthRead: uint64(v % 4), FailNthWrite: uint64(v % 5),
					PoisonLo: addr, PoisonHi: addr + v%64, PoisonFetch: v&1 == 1})
			case 8:
				m.SetWriteWatch(0, uint32(size), func(uint32, int) { hooks.fired = true })
				m.SetObserver(hooks)
			case 9:
				m.SetConsoleSink(func(string) { hooks.fired = true })
			}
		}
		m.Release()
		n := New(size)
		hooks.fired = false
		checkFresh(t, n, size, hooks)
		if n != m {
			checkFresh(t, m, size, hooks)
		}
	})
}

// checkFresh asserts m is in the state New gives a newly allocated memory,
// and that no hook armed before its release still runs.
func checkFresh(t *testing.T, m *Memory, size int, hooks *staleHooks) {
	t.Helper()
	if m.Size() != size {
		t.Fatalf("size %d, want %d", m.Size(), size)
	}
	for i, b := range m.ram {
		if b != 0 {
			t.Fatalf("ram[%#x] = %#02x after Release, want 0", i, b)
		}
	}
	for w, d := range m.dirty {
		if d != 0 {
			t.Fatalf("dirty word %d = %#x after Release, want 0", w, d)
		}
	}
	if m.Console() != "" || m.ConsoleTruncated() || m.consoleLimit != DefaultConsoleLimit {
		t.Fatalf("console %q truncated %v limit %d, want empty, false, %d",
			m.Console(), m.ConsoleTruncated(), m.consoleLimit, DefaultConsoleLimit)
	}
	if m.Reads != 0 || m.Writes != 0 {
		t.Fatalf("counters Reads %d Writes %d, want 0", m.Reads, m.Writes)
	}
	if m.watchFn != nil || m.watchLo != 0 || m.watchHi != 0 || m.fault != nil ||
		m.obs != nil || m.consoleSink != nil || m.smp != nil || m.locks != [LockCount]uint32{} {
		t.Fatal("a watch, fault plan, observer, sink, SMP controller or held lock survived Release")
	}

	// The same, seen from the bus: every lock is free, the control page
	// gives single-core answers, and traffic runs no stale hook.
	for i := uint32(0); i < LockCount; i++ {
		if old, err := m.Load32(LockBase + 4*i); err != nil || old != 0 {
			t.Fatalf("lock %d read %d, %v; want 0", i, old, err)
		}
	}
	if id, _ := m.Load32(SMPCoreID); id != 0 {
		t.Fatalf("core id %d, want 0", id)
	}
	top := uint32(size) &^ 3
	if err := m.Store32(top-4, 1); err != nil {
		t.Fatalf("store at top of RAM: %v", err)
	}
	if _, err := m.Load32(top - 4); err != nil {
		t.Fatalf("load at top of RAM: %v", err)
	}
	m.Store32(ConsolePutc, 'x')
	if hooks.fired {
		t.Fatal("a hook armed before Release ran after it")
	}
	if m.Console() != "x" {
		t.Fatalf("console %q, want %q", m.Console(), "x")
	}
}

// TestReleaseZeroesStraddlingLoad checks that a program load spanning a
// page boundary marks both pages, so Release clears all of it.
func TestReleaseZeroesStraddlingLoad(t *testing.T) {
	size := 4 * pageSize
	m := New(size)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := m.LoadProgram(2*pageSize-4, data); err != nil {
		t.Fatal(err)
	}
	if err := m.Store8(uint32(size-1), 9); err != nil {
		t.Fatal(err)
	}
	m.Release()
	checkFresh(t, New(size), size, &staleHooks{})
}
