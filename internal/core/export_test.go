package core

// Test-only handles on the unexported reduction layer, for the external
// test package: it may import internal/check, which imports core and so
// is an import cycle for in-package tests.

type (
	OverlapTable  = overlapTable
	NonMaxScratch = nonMaxScratch
)

var NewNonMaxScratch = newNonMaxScratch

// SetSeq sets the scratch's stamp generation, for the wraparound test.
func (s *nonMaxScratch) SetSeq(seq int32) { s.seq = seq }
