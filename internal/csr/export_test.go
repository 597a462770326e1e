package csr

import (
	"context"
	"math"
)

// PeelMemberCounts runs Decompose(c, 1) and returns the member counts
// its detector performed and the pins they scanned.
func PeelMemberCounts(c *CSR) (counts, pins int64) {
	p := newPeeler(context.Background(), c, 1, math.MaxInt)
	p.peel()
	return p.det.memberCounts, p.det.memberPins
}
