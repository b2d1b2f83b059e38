package pressure

import "testing"

func TestWidth(t *testing.T) {
	if got := Width(4); got != 4 {
		t.Fatalf("idle Width(4) = %d, want 4", got)
	}
	Begin()
	if got := Width(4); got != 3 {
		t.Errorf("Width(4) with a request in flight = %d, want 3", got)
	}
	if got := Width(1); got != 1 {
		t.Errorf("Width(1) with a request in flight = %d, want 1", got)
	}
	End()
	if got := Width(4); got != 4 {
		t.Errorf("Width(4) after End = %d, want 4", got)
	}
}

// TestWatchLooksBack: a Watch narrows for any request in flight since its
// previous reading, one that began and ended in between included, and
// widens again once a whole interval passed with none.
func TestWatchLooksBack(t *testing.T) {
	w := NewWatch()
	if got := w.Width(3); got != 3 {
		t.Fatalf("idle Watch.Width(3) = %d, want 3", got)
	}
	Begin()
	End()
	if got := w.Width(3); got != 2 {
		t.Errorf("after a request that began and ended since the last reading: %d, want 2", got)
	}
	if got := w.Width(3); got != 3 {
		t.Errorf("after an idle interval: %d, want 3", got)
	}
	Begin()
	if got := w.Width(3); got != 2 {
		t.Errorf("with a request in flight: %d, want 2", got)
	}
	if got := w.Width(3); got != 2 {
		t.Errorf("with the same request still in flight: %d, want 2", got)
	}
	End()
	if got := w.Width(3); got != 2 {
		t.Errorf("after the request that was in flight at the last reading ended: %d, want 2", got)
	}
	if got := w.Width(3); got != 3 {
		t.Errorf("after an idle interval: %d, want 3", got)
	}
}
