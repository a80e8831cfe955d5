package tensor

import (
	"testing"

	"etalstm/internal/obs"
)

func TestWorkspaceRecycles(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Get(4, 8)
	if a.Rows != 4 || a.Cols != 8 || len(a.Data) != 32 {
		t.Fatalf("Get shape: %v len %d", a, len(a.Data))
	}
	a.Fill(3)
	ws.Put(a)
	b := ws.Get(8, 4) // same element count, different shape
	if b != a {
		t.Fatal("same-bucket Get must recycle the freed buffer")
	}
	if b.Rows != 8 || b.Cols != 4 {
		t.Fatalf("recycled shape: %v", b)
	}
	for _, v := range b.Data {
		if v != 0 {
			t.Fatal("recycled buffer must be zeroed")
		}
	}
	st := ws.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestWorkspaceBuckets(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1024, 1024}, {1025, 2048},
	} {
		if got := bucketFor(tc.n); got != tc.want {
			t.Errorf("bucketFor(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	ws := NewWorkspace()
	// A freed foreign 33-element buffer (cap 33 rounds down to bucket
	// 32) must not serve a 40-element request (bucket 64) it cannot
	// hold...
	small := New(1, 33)
	ws.Put(small)
	big := ws.Get(1, 40)
	if big == small {
		t.Fatal("Get handed out a too-small buffer")
	}
	// ...but a smaller request from the same bucket reuses it.
	if again := ws.Get(1, 20); again != small {
		t.Fatal("Get must reuse a same-bucket buffer for a smaller shape")
	}
}

func TestWorkspaceForeignPut(t *testing.T) {
	ws := NewWorkspace()
	m := New(3, 3) // cap 9, floor bucket 8
	ws.Put(m)
	got := ws.Get(2, 4) // 8 elements, ceil bucket 8
	if got != m {
		t.Fatal("foreign matrix must be recyclable")
	}
	if got.Rows != 2 || got.Cols != 4 || len(got.Data) != 8 {
		t.Fatalf("reshaped foreign matrix: %v len %d", got, len(got.Data))
	}
}

func TestWorkspaceNilSafe(t *testing.T) {
	var ws *Workspace
	m := ws.Get(2, 3)
	if m == nil || m.Rows != 2 || m.Cols != 3 {
		t.Fatal("nil workspace Get must behave like New")
	}
	ws.Put(m)
	ws.PutAll(m, nil)
	if ws.GetObj(1) != nil {
		t.Fatal("nil workspace GetObj must return nil")
	}
	ws.PutObj(1, m)
	ws.Reset()
	if st := ws.Stats(); st != (WorkspaceStats{}) {
		t.Fatalf("nil workspace stats: %+v", st)
	}
}

func TestWorkspaceObjSlots(t *testing.T) {
	ws := NewWorkspace()
	type header struct{ x int }
	if ws.GetObj(7) != nil {
		t.Fatal("empty slot must return nil")
	}
	h := &header{x: 1}
	ws.PutObj(7, h)
	if got := ws.GetObj(7); got != any(h) {
		t.Fatalf("GetObj returned %v", got)
	}
	if ws.GetObj(7) != nil {
		t.Fatal("slot must be empty after pop")
	}
}

func TestWorkspaceRetainedReset(t *testing.T) {
	ws := NewWorkspace()
	ws.Put(New(4, 4))
	ws.Put(New(2, 2))
	n, el := ws.Retained()
	if n != 2 || el != 20 {
		t.Fatalf("Retained = %d, %d", n, el)
	}
	ws.Reset()
	if n, _ := ws.Retained(); n != 0 {
		t.Fatal("Reset must drop the free lists")
	}
}

// TestWorkspacePoisonedBufferZeroed attacks the recycling contract
// directly: a returned buffer full of garbage — including the spare
// capacity beyond the logical shape, which a smaller follow-up Get
// would otherwise inherit — must come back indistinguishable from a
// fresh allocation.
func TestWorkspacePoisonedBufferZeroed(t *testing.T) {
	ws := NewWorkspace()
	m := ws.Get(4, 8)
	poison := m.Data[:cap(m.Data)]
	for i := range poison {
		poison[i] = float32(i) + 0.5
	}
	ws.Put(m)
	got := ws.Get(4, 5) // 20 elements rounds up into the same 32 bucket
	if got != m {
		t.Fatal("expected the poisoned buffer back from the same bucket")
	}
	for i, v := range got.Data {
		if v != 0 {
			t.Fatalf("recycled Data[%d] = %v, want 0", i, v)
		}
	}
}

// TestWorkspaceSteadyStateAllocs pins the arena promise at the tensor
// level: a warm Get/Put cycle performs zero heap allocations.
func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	ws := NewWorkspace()
	ws.Put(New(16, 16))
	avg := testing.AllocsPerRun(100, func() {
		m := ws.Get(16, 16)
		ws.Put(m)
	})
	if avg > 0 {
		t.Fatalf("warm Get/Put allocates %.1f times per cycle, want 0", avg)
	}
}

// TestWorkspaceStages: stage arenas are created on first use, carry no
// recorder, and the owner's Stats, Retained and Reset cover them.
func TestWorkspaceStages(t *testing.T) {
	if (*Workspace)(nil).Stage(2) != nil {
		t.Fatal("a nil workspace has stage arenas")
	}
	w := NewWorkspace()
	w.SetRecorder(obs.NewRecorder())
	s1 := w.Stage(1)
	if s1 == nil || w.Stage(1) != s1 || w.Stage(0) == s1 {
		t.Fatal("Stage does not return one stable arena per index")
	}
	if s1.Recorder() != nil {
		t.Fatal("stage arena inherited the owner's recorder")
	}
	w.Put(w.Get(2, 3))
	s1.Put(s1.Get(4, 4))
	if st := w.Stats(); st.Gets != 2 || st.Puts != 2 || st.Misses != 2 {
		t.Fatalf("Stats %+v does not sum the owner and its stage", st)
	}
	if b, e := w.Retained(); b != 2 || e != 8+16 {
		t.Fatalf("Retained = %d buffers, %d elements; want 2, 24", b, e)
	}
	w.Reset()
	if b, _ := s1.Retained(); b != 0 {
		t.Fatalf("stage arena retains %d buffers after the owner's Reset", b)
	}
}
