package check

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Goroutine is one entry of a goroutine snapshot.
type Goroutine struct {
	// ID is the runtime's goroutine ID.  The runtime never reuses one,
	// so an ID present in two snapshots names the same goroutine.
	ID uint64
	// Header is "[state]: created by F": the state with the creation
	// site (the "created by" frame) appended, so two goroutines parked
	// in the same state but born in different places stay
	// distinguishable.
	Header string
}

// GoroutineSnapshot returns one entry per live goroutine, sorted by
// header, for leak detection by snapshot-and-diff.
func GoroutineSnapshot() []Goroutine {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []Goroutine
	for _, block := range strings.Split(string(buf), "\n\n") {
		lines := strings.Split(block, "\n")
		// "goroutine 17 [chan receive]:" → ID 17, "[chan receive]:".
		rest, ok := strings.CutPrefix(lines[0], "goroutine ")
		if !ok {
			continue
		}
		idText, header, ok := strings.Cut(rest, " ")
		if !ok {
			continue
		}
		id, err := strconv.ParseUint(idText, 10, 64)
		if err != nil {
			continue
		}
		if i := strings.Index(header, "["); i >= 0 {
			header = header[i:]
		}
		created := ""
		for _, l := range lines[1:] {
			if strings.HasPrefix(l, "created by ") {
				created = strings.TrimSpace(l)
				break
			}
		}
		out = append(out, Goroutine{ID: id, Header: header + " " + created})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Header < out[j].Header })
	return out
}

// CheckNoLeaks compares the current goroutines against a snapshot
// taken before the operation under test, retrying for up to window so
// goroutines that are merely still winding down (worker pools draining
// after cancellation) are not reported.  It returns nil when every
// goroutine either existed before or has exited, and otherwise an
// error listing the leaked headers.
func CheckNoLeaks(before []Goroutine, window time.Duration) error {
	deadline := time.Now().Add(window)
	for {
		leaked := diffGoroutines(before, GoroutineSnapshot())
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("check: %d leaked goroutine(s):\n  %s",
				len(leaked), strings.Join(leaked, "\n  "))
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// diffGoroutines returns the headers of the goroutines in after not
// accounted for by before.  A goroutine whose ID is in both snapshots
// existed before, whatever its state now.  Each remaining goroutine of
// after must be matched by one of before that has since exited and had
// the same header (a multiset difference over the sorted headers).
func diffGoroutines(before, after []Goroutine) []string {
	existed := make(map[uint64]bool, len(before))
	for _, g := range before {
		existed[g.ID] = true
	}
	alive := make(map[uint64]bool, len(after))
	for _, g := range after {
		alive[g.ID] = true
	}
	var leaked []string
	i := 0
	for _, a := range after {
		if existed[a.ID] {
			continue
		}
		for i < len(before) && (alive[before[i].ID] || before[i].Header < a.Header) {
			i++
		}
		if i < len(before) && before[i].Header == a.Header {
			i++
			continue
		}
		leaked = append(leaked, a.Header)
	}
	return leaked
}
