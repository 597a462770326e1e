package check

import (
	"strings"
	"testing"
	"time"
)

func TestCheckNoLeaksClean(t *testing.T) {
	before := GoroutineSnapshot()
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
	if err := CheckNoLeaks(before, time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestCheckNoLeaksDetects(t *testing.T) {
	before := GoroutineSnapshot()
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	go func() {
		close(started)
		<-block
	}()
	<-started
	err := CheckNoLeaks(before, 50*time.Millisecond)
	if err == nil {
		t.Fatal("want a leak report for the still-blocked goroutine")
	}
	if !strings.Contains(err.Error(), "leaked goroutine") {
		t.Fatalf("unexpected error text: %v", err)
	}
}

func TestDiffGoroutinesMultiset(t *testing.T) {
	// Goroutines 1-3 exited; 4-7 are new.  An exited goroutine accounts
	// for one new goroutine with its exact header.
	before := []Goroutine{{1, "[chan receive] created by a"}, {2, "[chan receive] created by a"}, {3, "[select] created by b"}}
	after := []Goroutine{{4, "[chan receive] created by a"}, {5, "[chan receive] created by a"}, {6, "[chan receive] created by a"}, {7, "[select] created by b"}}
	leaked := diffGoroutines(before, after)
	if len(leaked) != 1 || leaked[0] != "[chan receive] created by a" {
		t.Fatalf("want exactly the third duplicate reported, got %v", leaked)
	}
	if got := diffGoroutines(after, before); got != nil {
		t.Fatalf("shrinking should report nothing, got %v", got)
	}

	// A goroutine present in both snapshots is not a leak whatever its
	// state now: a test goroutine caught runnable before starting a
	// subtest and parked waiting on it after.
	before = []Goroutine{{1, "[runnable]: created by a"}, {2, "[select] created by b"}}
	after = []Goroutine{{1, "[chan receive]: created by a"}, {2, "[select] created by b"}}
	if got := diffGoroutines(before, after); got != nil {
		t.Fatalf("same IDs in a new state should report nothing, got %v", got)
	}

	// Goroutine 1 was runnable and has exited; goroutine 3, new, comes
	// from the same creation site in another state, and goroutine 2,
	// still alive, cannot account for the new goroutine 4 with its
	// header.
	after = []Goroutine{{3, "[chan receive]: created by a"}, {2, "[select] created by b"}, {4, "[select] created by b"}}
	leaked = diffGoroutines(before, after)
	if len(leaked) != 2 || leaked[0] != "[chan receive]: created by a" || leaked[1] != "[select] created by b" {
		t.Fatalf("want the new a and the second b reported, got %v", leaked)
	}
}
