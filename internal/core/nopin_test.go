package core

import (
	"bytes"
	"testing"

	"omxsim/internal/cpu"
	"omxsim/internal/policy"
	"omxsim/internal/vm"
)

func TestNoPinningNeverPins(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.NoPinning})
	addr := h.buf(t, 1<<20)
	r, err := m.Declare([]Segment{{addr, 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	done := m.Acquire(r)
	h.eng.Run()
	if done.Err() != nil {
		t.Fatal(done.Err())
	}
	if m.PinnedPages() != 0 || m.Stats().PagesPinned != 0 {
		t.Fatal("NoPinning pinned pages")
	}
	if h.core.BusyTime(cpu.Kernel) > 1000 {
		t.Fatalf("NoPinning consumed %v of kernel time", h.core.BusyTime(cpu.Kernel))
	}
	if !r.Ready(0, 1<<20) {
		t.Fatal("NoPinning region not Ready")
	}
	m.Release(r)
}

func TestNoPinningAccessThroughPageTable(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.NoPinning})
	addr := h.buf(t, 128*1024)
	want := make([]byte, 128*1024)
	for i := range want {
		want[i] = byte(i * 11)
	}
	h.as.Write(addr, want)
	r, _ := m.Declare([]Segment{{addr, 128 * 1024}})
	m.Acquire(r)
	h.eng.Run()
	got := make([]byte, 128*1024)
	if err := readAt(r, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("NoPinning read mismatch")
	}
	if err := writeAt(r, 5000, []byte("nic-mmu")); err != nil {
		t.Fatal(err)
	}
	check := make([]byte, 7)
	h.as.Read(addr+5000, check)
	if string(check) != "nic-mmu" {
		t.Fatal("NoPinning write did not land")
	}
}

func TestNoPinningSurvivesMigration(t *testing.T) {
	// The NIC-MMU model follows the page table, so migration (which fires
	// notifiers and would unpin a pinned region) is transparent.
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.NoPinning})
	addr := h.buf(t, 64*1024)
	h.as.Write(addr, []byte("before"))
	r, _ := m.Declare([]Segment{{addr, 64 * 1024}})
	m.Acquire(r)
	h.eng.Run()
	if n, err := h.as.Migrate(addr, 64*1024); err != nil || n == 0 {
		t.Fatalf("migrate = %d, %v", n, err)
	}
	got := make([]byte, 6)
	if err := readAt(r, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "before" {
		t.Fatalf("read %q after migration", got)
	}
}

func TestNoPinningVectorial(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.NoPinning})
	a1 := h.buf(t, 8192)
	a2 := h.buf(t, 8192)
	r, _ := m.Declare([]Segment{{a1 + 3, 4000}, {a2 + 7, 5000}})
	m.Acquire(r)
	h.eng.Run()
	data := make([]byte, 9000)
	for i := range data {
		data[i] = byte(i * 3)
	}
	if err := writeAt(r, 0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 9000)
	if err := readAt(r, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("vectorial no-pin round trip failed")
	}
}

// TestNoPinningBufByReference: a page-table-translated region lends its
// live pages through ReadBufAt and writes a Buf through WriteBufAt, one
// segment piece at a time from one BufWriter. The lent view keeps the
// snapshot a copy would have taken, whether the destination's segments
// split the range at a page boundary (whole pages adopted) or mid-page
// (copied).
func TestNoPinningBufByReference(t *testing.T) {
	h := newHarness(t)
	m := h.manager(ManagerConfig{Policy: policy.NoPinning})
	const n = 5 * vm.PageSize
	src, a1, a2 := h.buf(t, 256<<10), h.buf(t, 256<<10), h.buf(t, 256<<10)
	want := make([]byte, n)
	for i := range want {
		want[i] = byte(i*7 + 1)
	}
	rs, _ := m.Declare([]Segment{{src, n}})
	for _, segs := range [][]Segment{
		{{a1, 2 * vm.PageSize}, {a2, 3 * vm.PageSize}},
		{{a1 + 100, 3000}, {a2 + 5, n - 3000}},
	} {
		rd, err := m.Declare(segs)
		if err != nil {
			t.Fatal(err)
		}
		m.Acquire(rs)
		m.Acquire(rd)
		h.eng.Run()
		h.as.Write(src, want)
		var b vm.Buf
		if err := rs.ReadBufAt(0, n, &b); err != nil {
			t.Fatal(err)
		}
		h.as.Write(src, []byte("rewritten")) // after the loan: clones
		if err := rd.WriteBufAt(0, &b); err != nil {
			t.Fatal(err)
		}
		b.Release()
		got := make([]byte, n)
		if err := readAt(rd, 0, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("segments %v: the region does not hold the lent snapshot (err %v)", segs, err)
		}
		m.Release(rs)
		m.Release(rd)
	}
}
