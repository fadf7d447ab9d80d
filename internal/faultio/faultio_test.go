package faultio

import (
	"errors"
	"reflect"
	"testing"

	"asmp/internal/journal"
)

// memSink is an in-memory journal.Sink for observing exactly what a
// faulty sink lets through.
type memSink struct {
	buf    []byte
	syncs  int
	truncs int
	closed bool
}

func (m *memSink) Write(p []byte) (int, error) {
	m.buf = append(m.buf, p...)
	return len(p), nil
}

func (m *memSink) Sync() error { m.syncs++; return nil }

func (m *memSink) Truncate(size int64) error {
	m.truncs++
	for int64(len(m.buf)) < size {
		m.buf = append(m.buf, 0)
	}
	m.buf = m.buf[:size]
	return nil
}

func (m *memSink) Seek(offset int64, whence int) (int64, error) { return offset, nil }

func (m *memSink) Close() error { m.closed = true; return nil }

var _ journal.Sink = (*memSink)(nil)

func TestEmpty(t *testing.T) {
	if !(Plan{}).Empty() {
		t.Error("zero plan not Empty")
	}
	for _, p := range []Plan{{Tear: true}, {FailSyncAt: 1}, {FailTruncateAt: 2}, {ShortWrites: 0.5}} {
		if p.Empty() {
			t.Errorf("plan %+v reported Empty", p)
		}
	}
}

func TestTearExactPrefix(t *testing.T) {
	under := &memSink{}
	s := New(under, Plan{Tear: true, TearAt: 37})
	if _, err := s.Write(make([]byte, 30)); err != nil {
		t.Fatalf("write below the tear failed: %v", err)
	}
	n, err := s.Write(make([]byte, 30))
	if n != 7 {
		t.Errorf("crossing write persisted %d bytes, want 7", n)
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("err = %v, want ErrInjected", err)
	}
	if len(under.buf) != 37 {
		t.Errorf("underlying sink holds %d bytes, want exactly 37", len(under.buf))
	}
	// Dead from here on: every operation repeats the same error.
	for name, op := range map[string]func() error{
		"Write":    func() error { _, err := s.Write([]byte("x")); return err },
		"Sync":     s.Sync,
		"Truncate": func() error { return s.Truncate(0) },
		"Seek":     func() error { _, err := s.Seek(0, 0); return err },
	} {
		if operr := op(); !errors.Is(operr, ErrInjected) || operr.Error() != err.Error() {
			t.Errorf("%s after tear: %v, want the original %v", name, operr, err)
		}
	}
	if len(under.buf) != 37 {
		t.Errorf("dead sink let bytes through: %d, want 37", len(under.buf))
	}
}

func TestTearAtZeroPersistsNothing(t *testing.T) {
	under := &memSink{}
	s := New(under, Plan{Tear: true})
	n, err := s.Write([]byte("hello"))
	if n != 0 || !errors.Is(err, ErrInjected) {
		t.Errorf("Write = (%d, %v), want (0, ErrInjected)", n, err)
	}
	if len(under.buf) != 0 {
		t.Errorf("underlying holds %d bytes, want 0", len(under.buf))
	}
}

func TestFailSyncAt(t *testing.T) {
	under := &memSink{}
	s := New(under, Plan{FailSyncAt: 3})
	for i := 1; i <= 2; i++ {
		if err := s.Sync(); err != nil {
			t.Fatalf("sync %d failed early: %v", i, err)
		}
	}
	err := s.Sync()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("3rd sync = %v, want ErrInjected", err)
	}
	if under.syncs != 2 {
		t.Errorf("underlying saw %d syncs, want 2 (the failing one never reaches it)", under.syncs)
	}
	if serr := s.Sync(); serr == nil || serr.Error() != err.Error() {
		t.Errorf("sync after death = %v, want sticky %v", serr, err)
	}
}

func TestFailTruncateAt(t *testing.T) {
	under := &memSink{buf: []byte("0123456789")}
	s := New(under, Plan{FailTruncateAt: 2})
	if err := s.Truncate(8); err != nil {
		t.Fatalf("first truncate failed: %v", err)
	}
	err := s.Truncate(4)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("2nd truncate = %v, want ErrInjected", err)
	}
	if string(under.buf) != "01234567" {
		t.Errorf("underlying = %q, want the first truncate applied and the second blocked", under.buf)
	}
}

func TestShortWriteStrictPrefix(t *testing.T) {
	under := &memSink{}
	s := New(under, Plan{ShortWrites: 1, Seed: 7})
	payload := []byte("0123456789abcdef")
	n, err := s.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if n >= len(payload) {
		t.Errorf("short write persisted %d of %d bytes — not a strict prefix", n, len(payload))
	}
	if string(under.buf) != string(payload[:n]) {
		t.Errorf("underlying = %q, want prefix %q", under.buf, payload[:n])
	}
}

// TestDeterministicReplay is the injector's core promise: the same plan
// replayed over the same operation sequence fails at the same point,
// with the same error text, persisting the same bytes.
func TestDeterministicReplay(t *testing.T) {
	plans := []Plan{
		{Tear: true, TearAt: 11, Seed: 3},
		{ShortWrites: 0.5, Seed: 42},
		{FailSyncAt: 2, Seed: 1},
	}
	replay := func(p Plan) ([]byte, []string) {
		under := &memSink{}
		s := New(under, p)
		var errs []string
		record := func(err error) {
			if err != nil {
				errs = append(errs, err.Error())
			} else {
				errs = append(errs, "")
			}
		}
		for i := 0; i < 6; i++ {
			_, err := s.Write([]byte("record line\n"))
			record(err)
			record(s.Sync())
		}
		return under.buf, errs
	}
	for _, p := range plans {
		b1, e1 := replay(p)
		b2, e2 := replay(p)
		if string(b1) != string(b2) {
			t.Errorf("plan %+v: persisted bytes differ between replays", p)
		}
		if !reflect.DeepEqual(e1, e2) {
			t.Errorf("plan %+v: error sequences differ:\n%q\n%q", p, e1, e2)
		}
	}
	// Different seeds must be allowed to differ (otherwise the seed is
	// dead weight); short writes with distinct seeds pick distinct cuts.
	_, e1 := replay(Plan{ShortWrites: 0.5, Seed: 1})
	_, e2 := replay(Plan{ShortWrites: 0.5, Seed: 2})
	if reflect.DeepEqual(e1, e2) {
		t.Log("seeds 1 and 2 coincided; not an error, but suspicious")
	}
}

func TestCloseAlwaysReleasesUnderlying(t *testing.T) {
	under := &memSink{}
	s := New(under, Plan{Tear: true, TearAt: 0})
	if _, err := s.Write([]byte("x")); err == nil {
		t.Fatal("tear did not fire")
	}
	if err := s.Close(); !errors.Is(err, ErrInjected) {
		t.Errorf("Close = %v, want the sticky injected error", err)
	}
	if !under.closed {
		t.Error("underlying sink never closed — descriptor leak after a tear")
	}
}

func TestWrapThroughJournal(t *testing.T) {
	// A torn plan threaded through journal.CreateVia must surface as a
	// journaling error, typed ErrInjected.
	path := t.TempDir() + "/run.jsonl"
	w, err := journal.CreateVia(path, Plan{Tear: true, TearAt: 10, Seed: 1}.Wrap())
	if err != nil {
		t.Fatal(err)
	}
	werr := w.WriteHeader(journal.Header{Tool: "test"})
	if !errors.Is(werr, ErrInjected) {
		t.Errorf("WriteHeader = %v, want ErrInjected", werr)
	}
	if cerr := w.Close(); !errors.Is(cerr, ErrInjected) {
		t.Errorf("Close = %v, want the sticky injected error", cerr)
	}
}
